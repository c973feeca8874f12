"""Run configuration shared by the CLI and the acceptance suite."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

ARTIFACT_VERSION = "0.1.0"

DEFAULT_TOLERANCES = {
    "intwin": 1e-8,
    "outer_exactness": 1e-8,
    "outer_functional": 1e-8,
    "path_functional": 1e-6,
    "endpoint_fidelity": 1e-8,
    "matching_cost": 1e-12,
    "displacement_margin": 0.05,
    "contour_log_exact": 1e-6,
    "contour_log_mc": 1e-3,
    "trossos_slack": 1e-3,
    "kernel": 1e-10,
}


@dataclass(frozen=True)
class RunConfig:
    grid_size: int = 4096
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    seed: int = 12345

    def __post_init__(self):
        n = self.grid_size
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 256, got {n}")
        tols = dict(DEFAULT_TOLERANCES)
        tols.update(self.tolerances)
        object.__setattr__(self, "tolerances", tols)

    def to_json(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def stamp(self) -> dict:
        """Header embedded in every output artifact."""
        return {
            "artifact_version": ARTIFACT_VERSION,
            "config_hash": self.config_hash(),
            "config": self.to_json(),
        }
