"""Mixture and ensemble specifications, plus their config-file parser.

Config files are line-oriented key=value with '#' comments. Mixtures are
numbered 1..n and consumed in order:

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


def _parse_bool(value: str, lineno: int) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ParseError(f"expected boolean, got {value!r}", line=lineno)


def _parse_floats(value: str, lineno: int) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise ParseError(f"expected comma-separated reals, got {value!r}", line=lineno) from None


def parse_spec_file(path: str) -> EnsembleSpec:
    """Parse an ensemble/mixture config; errors carry exact line numbers."""
    ensemble_fields: dict[str, tuple[str, int]] = {}
    mixture_fields: dict[int, dict[str, tuple[str, int]]] = {}
    with open_text(path) as fh:
        for lineno, key, value in key_value_lines(fh):
            parts = key.split(".")
            if parts[0] == "ensemble" and len(parts) == 2:
                ensemble_fields[parts[1]] = (value, lineno)
            elif parts[0] == "mixture" and len(parts) == 3:
                try:
                    index = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad mixture index in {key!r}", line=lineno) from None
                mixture_fields.setdefault(index, {})[parts[2]] = (value, lineno)
            else:
                raise ParseError(f"unknown key {key!r}", line=lineno)

    if "aggregator" not in ensemble_fields:
        raise SpecError(f"{path}: missing ensemble.aggregator")
    if "weights" not in ensemble_fields:
        raise SpecError(f"{path}: missing ensemble.weights")
    if not mixture_fields:
        raise SpecError(f"{path}: no mixtures defined")

    indices = sorted(mixture_fields)
    if indices != list(range(1, len(indices) + 1)):
        raise SpecError(f"{path}: mixture indices must be 1..n, got {indices}")

    mixtures = []
    for index in indices:
        fields = mixture_fields[index]
        for required in ("model", "weights", "aggregator"):
            if required not in fields:
                raise SpecError(f"{path}: mixture.{index} missing {required!r}")
        value, lineno = fields["weights"]
        weights = _parse_floats(value, lineno)
        use_idf = False
        if "use_idf" in fields:
            use_idf = _parse_bool(*fields["use_idf"])
        scale_segments = True
        if "scale_segments" in fields:
            scale_segments = _parse_bool(*fields["scale_segments"])
        mixtures.append(
            MixtureSpec(
                model_id=fields["model"][0],
                weights=weights,
                aggregator=fields["aggregator"][0],
                use_idf=use_idf,
                scale_segments=scale_segments,
            )
        )

    raw_weights = _parse_floats(*ensemble_fields["weights"])
    return EnsembleSpec.normalized(
        mixtures=tuple(mixtures),
        raw_weights=raw_weights,
        aggregator=ensemble_fields["aggregator"][0],
    )
