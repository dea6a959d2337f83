"""Topology-preserving multi-modal embedding for spatial omics data.

Import the submodules (`topofuse.dataio`, `topofuse.downstream`, ...)
directly. This file imports none of them, so the CLI can pin BLAS thread
pools before numpy is first imported.
"""

__version__ = "0.1.0"
