"""Intra-case prefix encoders.

Categorical values are encoded as ordinal vocabulary codes (index 0 is
reserved for padding/unknown) so the feature count, and with it the qubit
count of downstream quantum models, stays equal to the slot count instead
of growing with the vocabulary. Scaling maps each feature into a fixed
target interval, by default [0, pi], with train-fitted min/max and
clamping at prediction time.

Encoders take a ``PrefixSet`` and gather each prefix's events straight from
the log's code columns, through one table per vocabulary from log codes to
vocabulary indices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .eventlog import PrefixSet, expand_ranges

PAD_TOKEN = "<PAD>"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered value list with PAD at index 0; unknown values map to 0."""

    entries: tuple[str, ...]
    _lookup: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.entries or self.entries[0] != PAD_TOKEN:
            raise ValueError("vocabulary must reserve index 0 for PAD")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("vocabulary entries must be unique")
        object.__setattr__(
            self, "_lookup", {v: i for i, v in enumerate(self.entries)}
        )

    @classmethod
    def from_values(cls, values: Iterable[str]) -> "Vocabulary":
        distinct = sorted({v for v in values if v})
        return cls((PAD_TOKEN, *distinct))

    def index(self, value: str | None) -> int:
        if value is None:
            return 0
        return self._lookup.get(value, 0)

    def __len__(self) -> int:
        return len(self.entries)

    def codes(self, values: Iterable[str | None]) -> np.ndarray:
        """``index`` of every value, as a float64 array."""
        get = self._lookup.get
        return np.array([get(v, 0) for v in values], dtype=np.float64)


@dataclass(eq=False)
class FeatureVector:
    """Numeric feature values with a parallel schema of feature names.

    ``values`` is one row ``(d,)`` or a block of rows ``(n, d)``; the schema
    names the last axis. ``len`` counts rows of a block and features of a
    row, and iterating a block yields its rows.
    """

    values: np.ndarray
    schema: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != len(self.schema):
            raise ValueError("values and schema lengths differ")
        if not np.isfinite(self.values).all():
            raise ValueError("feature values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        if self.values.ndim != 2:
            raise TypeError("only a block of feature rows is iterable")
        return (FeatureVector(row, self.schema) for row in self.values)

    def concat(self, other: "FeatureVector") -> "FeatureVector":
        return FeatureVector(
            np.concatenate([self.values, other.values], axis=-1),
            self.schema + other.schema,
        )


def _code_table(vocab: Vocabulary, names: Sequence[str]) -> np.ndarray:
    """``vocab`` index of each log code's name, with 0 appended for code -1."""
    return np.append(vocab.codes(names), 0.0)


def encode_static(
    prefixes: PrefixSet,
    attr_names: Sequence[str],
    attr_vocabs: Mapping[str, Vocabulary],
) -> FeatureVector:
    """One ordinal code per selected case attribute; missing values map to 0."""
    out = np.zeros((len(prefixes), len(attr_names)))
    for j, name in enumerate(attr_names):
        vocab = attr_vocabs.get(name)
        if vocab is not None:
            per_case = vocab.codes(attrs.get(name) for attrs in prefixes.log.attributes)
            out[:, j] = per_case[prefixes.case]
    return FeatureVector(out, tuple(f"static_{n}" for n in attr_names))


def encode_last_state(
    prefixes: PrefixSet,
    act_vocab: Vocabulary,
    res_vocab: Vocabulary | None = None,
) -> FeatureVector:
    """Ordinal code of the last activity, plus the last resource when present:
    ``encode_index_based`` at k = 1, its columns named last_act and last_res."""
    block = encode_index_based(prefixes, 1, act_vocab, res_vocab)
    return FeatureVector(block.values, ("last_act", "last_res")[:len(block.schema)])


def encode_aggregation(
    prefixes: PrefixSet,
    act_vocab: Vocabulary,
    mode: str = "count",
) -> FeatureVector:
    """Occurrence counts (or presence flags) per known activity."""
    if mode not in ("count", "boolean"):
        raise ConfigError(f"aggregation mode must be count or boolean, got {mode!r}")
    log = prefixes.log
    n, width = len(prefixes), len(act_vocab) - 1
    # Every prefix's events, as the prefix (row) and the event's log row.
    rows, pos = expand_ranges(log.offsets[prefixes.case], prefixes.length)
    codes = _code_table(act_vocab, log.activity_vocab)[log.activity[pos]].astype(np.int64)
    known = codes > 0
    cells = rows[known] * width + codes[known] - 1
    out = np.bincount(cells, minlength=n * width).reshape(n, width).astype(np.float64)
    if mode == "boolean":
        out = (out > 0).astype(np.float64)
    return FeatureVector(out, tuple(f"agg_{a}" for a in act_vocab.entries[1:]))


def encode_index_based(
    prefixes: PrefixSet,
    k: int,
    act_vocab: Vocabulary,
    res_vocab: Vocabulary | None = None,
) -> FeatureVector:
    """Ordinal codes of the last k activities, oldest first, left-padded with 0.

    When the log carries resources a parallel k-slot resource block is added.
    """
    if k < 1:
        raise ConfigError(f"index encoding needs k >= 1, got {k}")
    schema = [f"act_{i + 1}" for i in range(k)]
    with_res = res_vocab is not None and len(res_vocab) > 1
    if with_res:
        schema += [f"res_{i + 1}" for i in range(k)]
    log = prefixes.log
    starts, ends = log.offsets[prefixes.case], prefixes.ends
    act_table = _code_table(act_vocab, log.activity_vocab)
    res_table = _code_table(res_vocab, log.resource_vocab) if with_res else None
    out = np.zeros((len(prefixes), len(schema)))
    # Slot j holds row end - k + j; a slot before the case's first row is padding.
    for j in range(k):
        pos = ends - (k - j)
        real = np.flatnonzero(pos >= starts)
        out[real, j] = act_table[log.activity[pos[real]]]
        if with_res:
            out[real, k + j] = res_table[log.resource[pos[real]]]
    return FeatureVector(out, tuple(schema))


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature min/max fitted on training data, mapping into [lo, hi]."""

    mins: np.ndarray
    maxs: np.ndarray
    schema: tuple[str, ...]
    lo: float = 0.0
    hi: float = math.pi


def _checked_target(target: tuple[float, float]) -> tuple[float, float]:
    """The scaling interval ``target`` as (lo, hi), increasing and of finite width."""
    lo, hi = target
    if not (lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ConfigError(f"scaling interval must be increasing and finite, got {target}")
    return lo, hi


def fit_scaler(
    train: FeatureVector,
    target: tuple[float, float] = (0.0, math.pi),
) -> ScalingParams:
    """Per-feature min/max of a training block of rows."""
    if train.values.ndim != 2:
        raise ValueError("a scaler is fitted on a block of feature rows")
    if len(train) == 0:
        raise ConfigError("cannot fit a scaler on an empty training set")
    lo, hi = _checked_target(target)
    return ScalingParams(
        train.values.min(axis=0), train.values.max(axis=0), train.schema, lo, hi
    )


def apply_scaler(fv: FeatureVector, params: ScalingParams) -> FeatureVector:
    """Scale a row or a block into [lo, hi]; out-of-range values are clamped first.

    A feature that was constant in training maps to the interval midpoint.
    """
    if fv.schema != params.schema:
        raise ValueError("feature schema does not match fitted scaler")
    span = params.maxs - params.mins
    width = params.hi - params.lo
    # lo + (clip - mins) / span * width, step by step in the one new array.
    scaled = np.clip(fv.values, params.mins, params.maxs)
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled -= params.mins
        scaled /= span
    scaled *= width
    scaled += params.lo
    scaled[..., span == 0] = params.lo + 0.5 * width
    return FeatureVector(scaled, fv.schema)


def write_feature_csv(
    block: FeatureVector,
    labels: Sequence[str],
    sink: IO[str],
) -> None:
    """Feature block as CSV: header is the schema, label in the last column."""
    if len(block) != len(labels):
        raise ValueError("rows and labels lengths differ")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(list(block.schema) + ["label"])
    for row, label in zip(block.values.tolist(), labels):
        writer.writerow([repr(v) for v in row] + [label])


INTRA_ENCODERS = ("static", "last_state", "agg_count", "agg_bool", "index_bsd")


def _check_intra_encoder(name: str, static_attrs: Sequence[str]) -> None:
    """``name`` is one of INTRA_ENCODERS, and "static" has attributes to read."""
    if name not in INTRA_ENCODERS:
        raise ConfigError(f"unknown intra-case encoder {name!r}, expected {INTRA_ENCODERS}")
    if name == "static" and not static_attrs:
        raise ConfigError("static encoder requires at least one case attribute")


def make_intra_encoder(
    name: str,
    act_vocab: Vocabulary,
    res_vocab: Vocabulary | None,
    k: int = 4,
    static_attrs: Sequence[str] = (),
    attr_vocabs: Mapping[str, Vocabulary] | None = None,
):
    """Bind an encoder name to fitted vocabularies; returns prefixes -> block."""
    _check_intra_encoder(name, static_attrs)
    if name == "static":
        vocabs = attr_vocabs or {}
        return lambda ps: encode_static(ps, static_attrs, vocabs)
    if name == "last_state":
        return lambda ps: encode_last_state(ps, act_vocab, res_vocab)
    if name == "agg_count":
        return lambda ps: encode_aggregation(ps, act_vocab, "count")
    if name == "agg_bool":
        return lambda ps: encode_aggregation(ps, act_vocab, "boolean")
    return lambda ps: encode_index_based(ps, k, act_vocab, res_vocab)
