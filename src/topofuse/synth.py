"""Synthetic datasets with planted spatial domains.

Domains are contiguous jittered-grid blocks laid out side by side. Each
domain elevates its own block of marker genes (and morphology dimensions)
by signal * noise_std, so markers are individually detectable and the
expression kNN graph stays informative at the default noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import SpotDataset
from .errors import OutOfRange

BASE_EXPR = 8.0  # baseline counts, in noise_std units; keeps entries positive
JITTER = 0.06  # grid jitter, in spacing units
BLOCK_GAP = 3  # empty grid cells between domains


@dataclass(frozen=True)
class SynthSpec:
    n_domains: int = 4
    spots_per_domain: int = 50
    spacing: float = 1.0
    genes: int = 200
    mor_dims: int = 12
    signal_tra: float = 3.0
    signal_mor: float = 2.0
    noise_std: float = 1.0
    seed: int = 42

    def __post_init__(self):
        for name in ("spacing", "signal_tra", "signal_mor", "noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"{name} must be finite")
        if self.seed < 0:
            raise OutOfRange("seed must be nonnegative")
        if self.n_domains < 1 or self.spots_per_domain < 1:
            raise OutOfRange("need at least one domain and one spot per domain")
        if self.genes < self.n_domains:
            raise OutOfRange("need at least one gene per domain")
        if self.mor_dims < 0:
            raise OutOfRange("mor_dims must be nonnegative")
        if self.noise_std <= 0:
            raise OutOfRange("noise_std must be positive")
        if self.signal_tra < 0 or self.signal_mor < 0:
            raise OutOfRange("signal strengths must be nonnegative")
        if self.spacing <= 0:
            raise OutOfRange("spacing must be positive")


def _block_profiles(n_domains: int, dims: int, signal: float, sigma: float, base: float) -> np.ndarray:
    """Domain profiles: each domain's marker block raised by signal * sigma."""
    prof = np.full((n_domains, dims), base)
    block = dims // n_domains
    if block == 0 or signal == 0:
        return prof
    bump = signal * sigma
    for d in range(n_domains):
        prof[d, d * block: (d + 1) * block] += bump
    return prof


def generate(spec: SynthSpec) -> tuple[SpotDataset, dict]:
    """Build a dataset plus ground truth.

    The truth dict holds the noise-free expression and morphology matrices
    and the planted domain labels.
    """
    rng = np.random.default_rng(spec.seed)
    side = math.ceil(math.sqrt(spec.spots_per_domain))
    coords = []
    labels = []
    for d in range(spec.n_domains):
        x0 = d * (side + BLOCK_GAP) * spec.spacing
        placed = 0
        for row in range(side):
            for col in range(side):
                if placed >= spec.spots_per_domain:
                    break
                coords.append((x0 + col * spec.spacing, row * spec.spacing))
                labels.append(d)
                placed += 1
    coords = np.asarray(coords, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    coords += rng.uniform(-JITTER, JITTER, size=coords.shape) * spec.spacing

    sigma = spec.noise_std
    prof_tra = _block_profiles(spec.n_domains, spec.genes, spec.signal_tra, sigma, BASE_EXPR * sigma)
    truth_tra = prof_tra[labels]
    tra = np.clip(truth_tra + rng.normal(0.0, sigma, size=(n, spec.genes)), 0.0, None)

    mor = None
    truth_mor = None
    if spec.mor_dims > 0:
        prof_mor = _block_profiles(spec.n_domains, spec.mor_dims, spec.signal_mor, sigma, 0.0)
        truth_mor = prof_mor[labels]
        mor = truth_mor + rng.normal(0.0, sigma, size=(n, spec.mor_dims))

    width = max(4, len(str(n - 1)))
    spot_ids = [f"s{i:0{width}d}" for i in range(n)]
    gene_ids = [f"g{i:04d}" for i in range(spec.genes)]
    ds = SpotDataset(tra=tra, coords=coords, spot_ids=spot_ids, gene_ids=gene_ids, mor=mor, labels=labels)
    truth = {"tra": truth_tra, "mor": truth_mor, "labels": labels.copy()}
    return ds, truth
