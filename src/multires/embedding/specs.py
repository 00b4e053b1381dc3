"""Mixture and ensemble specifications, plus their config-file parser.

Config files are line-oriented key=value with '#' comments. Mixtures are
numbered 1..n and consumed in order. Each key is read through the
parser table below; any other key is a ParseError at its line.

    ensemble.aggregator=concatenate
    ensemble.weights=1,1,1
    mixture.1.model=bert
    mixture.1.weights=0.25,0.25,0.25,0.25,0,0,0,0,0,0,0,0
    mixture.1.aggregator=concatenate
    mixture.1.use_idf=false
"""

from __future__ import annotations

from dataclasses import dataclass, field

from multires.errors import ParseError, SpecError
from multires.fileio import key_value_lines, open_text

AGGREGATORS = ("sum", "average", "concatenate")
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MixtureSpec:
    """Layer-weighted aggregation within one model's l x d matrix.

    Weights must sum to 1. Under ``concatenate`` the layers with weight
    exactly 0 contribute no segment, so a last-4 concatenation over a
    12-layer model is expressed as [1/4]*4 + [0]*8. ``scale_segments``
    toggles whether concatenated segments are multiplied by their weight
    (default) or merely selected by nonzero weight.
    """

    model_id: str
    weights: tuple[float, ...]
    aggregator: str
    use_idf: bool = False
    scale_segments: bool = True

    def __post_init__(self):
        if self.aggregator not in AGGREGATORS:
            raise SpecError(f"unknown aggregator {self.aggregator!r}; expected one of {AGGREGATORS}")
        if not self.weights:
            raise SpecError("mixture weights must be nonempty")
        total = sum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise SpecError(f"mixture weights for {self.model_id!r} sum to {total!r}, expected 1")


@dataclass(frozen=True)
class EnsembleSpec:
    """Cross-model aggregation of mixture outputs.

    Raw coefficients are normalized to sum to 1 at construction; the
    originals are kept in ``raw_weights``.
    """

    mixtures: tuple[MixtureSpec, ...]
    weights: tuple[float, ...]
    aggregator: str
    raw_weights: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.aggregator not in AGGREGATORS:
            raise SpecError(f"unknown aggregator {self.aggregator!r}; expected one of {AGGREGATORS}")
        if not self.mixtures:
            raise SpecError("ensemble needs at least one mixture")
        if len(self.weights) != len(self.mixtures):
            raise SpecError(
                f"{len(self.weights)} ensemble weights for {len(self.mixtures)} mixtures"
            )
        total = sum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise SpecError(f"ensemble weights sum to {total!r}, expected 1 after normalization")

    @classmethod
    def normalized(
        cls, mixtures: tuple[MixtureSpec, ...], raw_weights: tuple[float, ...], aggregator: str
    ) -> "EnsembleSpec":
        total = sum(raw_weights)
        if total == 0:
            raise SpecError("ensemble weights sum to zero; cannot normalize")
        weights = tuple(w / total for w in raw_weights)
        return cls(
            mixtures=mixtures, weights=weights, aggregator=aggregator, raw_weights=raw_weights
        )


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(value: str) -> bool:
    return _BOOLEANS[value.lower()]


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(part) for part in value.split(","))


# Spec key -> parser, which raises KeyError or ValueError on a bad value.
# Mixture keys are MixtureSpec's keywords, except "model" for model_id.
_ENSEMBLE_KEYS = {"aggregator": str, "weights": _parse_floats}
_MIXTURE_KEYS = {
    "model": str,
    "weights": _parse_floats,
    "aggregator": str,
    "use_idf": _parse_bool,
    "scale_segments": _parse_bool,
}


def parse_spec_file(path: str) -> EnsembleSpec:
    """Parse an ensemble/mixture config; errors carry exact line numbers."""
    ensemble: dict[str, object] = {}
    mixtures: dict[int, dict[str, object]] = {}
    with open_text(path) as fh:
        for lineno, key, value in key_value_lines(fh):
            parts = key.split(".")
            if len(parts) == 2 and parts[0] == "ensemble":
                fields, table = ensemble, _ENSEMBLE_KEYS
            elif len(parts) == 3 and parts[0] == "mixture" and parts[1].isdecimal():
                fields, table = mixtures.setdefault(int(parts[1]), {}), _MIXTURE_KEYS
            else:
                table = {}
            if parts[-1] not in table:
                raise ParseError(f"unknown key {key!r}", line=lineno)
            try:
                fields[parts[-1]] = table[parts[-1]](value)
            except (KeyError, ValueError):
                raise ParseError(f"bad value {value!r} for key {key!r}", line=lineno) from None

    for required in ("aggregator", "weights"):
        if required not in ensemble:
            raise SpecError(f"{path}: missing ensemble.{required}")
    if not mixtures:
        raise SpecError(f"{path}: no mixtures defined")
    indices = sorted(mixtures)
    if indices != list(range(1, len(indices) + 1)):
        raise SpecError(f"{path}: mixture indices must be 1..n, got {indices}")
    specs = []
    for index in indices:
        fields = mixtures[index]
        for required in ("model", "weights", "aggregator"):
            if required not in fields:
                raise SpecError(f"{path}: mixture.{index} missing {required!r}")
        specs.append(MixtureSpec(model_id=fields.pop("model"), **fields))
    return EnsembleSpec.normalized(tuple(specs), ensemble["weights"], ensemble["aggregator"])
