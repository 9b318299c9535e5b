"""Flat feature vectors exchanged between the pipelines and the clusterer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

ACOUSTIC = "acoustic"
VISUAL = "visual"
MODALITIES = (ACOUSTIC, VISUAL)


def check_width(modality: str, width: int) -> None:
    """Refuse, with UsageError, a width that no `modality` vector can have.

    Acoustic vectors are a spectrum's frequencies followed by its amplitudes,
    so their length is even (2n for an n-bin spectrum).  Visual vectors are
    flattened dominant-color triples, length 3C.  Neither is ever empty.
    """
    step = 2 if modality == ACOUSTIC else 3
    if not width or width % step:
        raise UsageError(f"{modality} width {width} is not a positive multiple of {step}")


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """A flat real-valued vector tagged with the modality that produced it.

    Its length obeys `check_width`: even for acoustic, 3C for visual.
    """

    values: np.ndarray
    modality: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise UsageError("feature vector must be a non-empty 1-D sequence")
        object.__setattr__(self, "values", values)
        if self.modality not in MODALITIES:
            raise UsageError(f"unknown modality {self.modality!r}")
        check_width(self.modality, values.size)

    def __len__(self) -> int:
        return int(self.values.size)
