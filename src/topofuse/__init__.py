"""Topology-preserving multi-modal embedding for spatial omics data.

Submodule attributes resolve lazily so the CLI can pin BLAS thread pools
before numpy is first imported.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "RunConfig": "dataio",
    "SpotDataset": "dataio",
    "load_config": "dataio",
    "load_dataset": "dataio",
    "TopofuseError": "errors",
    "ari": "evaluate",
    "modality_contribution": "evaluate",
    "mrre": "evaluate",
    "kappa": "objective",
    "recon_loss": "objective",
    "topo_loss": "objective",
    "topo_prior": "objective",
    "train": "objective",
    "PreprocessedData": "preprocess",
    "preprocess_dataset": "preprocess",
    "SynthSpec": "synth",
    "generate": "synth",
    "NeighborGraph": "topology",
    "auto_epsilon": "topology",
    "build_spatial_graph": "topology",
    "knn_graph": "topology",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
