"""Kernel matrices: classical (linear, rbf) and quantum overlap kernels.

A quantum kernel entry is |<psi(x')|psi(x)>|^2 with psi(x) = V(x)|0...0>.
Each input row's feature-map state is simulated once, as one batch
(``qsim.feature_map_states``), and all entries are read off the state inner
products: a Gram matrix is |S S^H|^2 over its strict upper triangle
(m(m-1)/2 logical entries, tracked in ``eval_count``), mirrored, with the
diagonal fixed at 1; a cross matrix is |S_test S_train^H|^2. The batch holds
m * 2^n complex amplitudes. Both products read the conjugated batch of
their columns: ``gram`` returns the train rows' conjugated batch
(``KernelMatrix.conj_states``), and ``cross`` given it simulates only the
test rows, so a fold simulates each row once. Shot mode samples each entry
from a per-pair seed derived from (global seed, i, j) by
``qsim.sampled_frequency``, so a matrix equals the per-pair
``qsim.kernel_overlap`` estimates entry for entry. A classical Gram matrix
is the cross matrix of the rows with themselves. Matrices can be persisted
to .npz keyed by a config hash.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .qsim import EXACT, FeatureMapKind, ShotConfig, feature_map_states, sampled_frequency

log_ = logging.getLogger("icppm.qkernel")

KERNEL_VARIANTS = ("linear", "rbf", "quantum")
# Part of every cache key: raise it whenever a change to the simulator or
# the kernels changes the matrices, so stale cache entries are never served.
CACHE_FORMAT_VERSION = 2
# Largest |K - K^T| entry a cached Gram matrix may have.
_CACHE_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class KernelKind:
    variant: str
    gamma: float | None = None
    feature_map: FeatureMapKind | None = None
    shots: ShotConfig = EXACT

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ConfigError(f"unknown kernel {self.variant!r}, expected {KERNEL_VARIANTS}")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError(f"rbf gamma must be positive, got {self.gamma}")
        if self.variant == "quantum" and self.feature_map is None:
            raise ConfigError("quantum kernel requires a feature map")

    @classmethod
    def linear(cls) -> "KernelKind":
        return cls("linear")

    @classmethod
    def rbf(cls, gamma: float | None = None) -> "KernelKind":
        return cls("rbf", gamma=gamma)

    @classmethod
    def quantum(cls, feature_map: FeatureMapKind, shots: ShotConfig = EXACT) -> "KernelKind":
        return cls("quantum", feature_map=feature_map, shots=shots)


@dataclass
class KernelMatrix:
    """Kernel values plus work counters.

    ``eval_count`` counts logical quantum entries (the strict upper triangle
    of a Gram matrix, every entry of a cross matrix); ``states_simulated``
    counts feature-map states simulated to produce them. Both are 0 for
    classical kernels, and ``states_simulated`` is 0 for a cached matrix.
    ``conj_states`` is the complex-conjugated (m, 2**n) batch of the rows a
    quantum Gram matrix was read off, for ``cross`` to reuse; it is None for
    classical, cached and cross matrices.
    """

    values: np.ndarray
    eval_count: int = 0
    states_simulated: int = 0
    conj_states: np.ndarray | None = None


def _as_matrix(data) -> np.ndarray:
    out = np.asarray(data, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got shape {out.shape}")
    return out


def pair_seed(seed: int, i: int, j: int) -> int:
    """Stable per-pair shot seed: a function of (seed, i, j) only."""
    return int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])


def _overlaps(rows: np.ndarray, conj_cols: np.ndarray) -> np.ndarray:
    """|<psi(c)|psi(r)>|^2 for every state pair, from (B, 2**n) batches of
    the row states and of the conjugated column states."""
    return np.abs(rows @ conj_cols.T) ** 2


def _shot_estimate(p: float, shots: ShotConfig, i: int, j: int) -> float:
    """Shot estimate of entry (i, j): ``kernel_overlap`` with ``pair_seed``."""
    return sampled_frequency(p, shots.shots, pair_seed(shots.seed, i, j))


def gram(train, kind: KernelKind) -> KernelMatrix:
    """Symmetric train-by-train kernel matrix.

    A classical kernel is ``cross`` of the rows with themselves. For the
    quantum kernel every row's state is simulated once; the strict upper
    triangle is read off the state inner products (or shot-sampled),
    mirrored, and the diagonal is 1 by construction. The conjugated states
    come back as ``conj_states`` for ``cross``.
    """
    x = _as_matrix(train)
    if kind.variant != "quantum":
        return cross(x, x, kind)
    m = len(x)
    states = feature_map_states(kind.feature_map, x)
    conj_states = states.conj()
    overlaps = _overlaps(states, conj_states)
    upper = np.triu_indices(m, 1)
    values = np.ones((m, m))
    if kind.shots.exact:
        values[upper] = overlaps[upper]
    else:
        values[upper] = [_shot_estimate(overlaps[i, j], kind.shots, i, j) for i, j in zip(*upper)]
    values.T[upper] = values[upper]
    return KernelMatrix(values, eval_count=len(upper[0]), states_simulated=m,
                        conj_states=conj_states)


def cross(test, train, kind: KernelKind, train_states: np.ndarray | None = None) -> KernelMatrix:
    """Rectangular test-by-train kernel matrix (all p*m entries).

    For the quantum kernel, ``train_states`` is the ``conj_states`` of
    ``gram(train, kind)``; given it, only the test rows are simulated. A
    batch whose shape is not (m, 2**n) for ``train`` raises ValueError.
    """
    xt = _as_matrix(test)
    xr = _as_matrix(train)
    if xt.shape[1] != xr.shape[1]:
        raise ValueError(f"dimension mismatch: {xt.shape[1]} vs {xr.shape[1]}")
    if kind.variant == "linear":
        return KernelMatrix(xt @ xr.T)
    if kind.variant == "rbf":
        gamma = kind.gamma if kind.gamma is not None else 1.0 / xr.shape[1]
        # exp(-gamma * max(|t|^2 + |r|^2 - 2 t.r, 0)) in the output buffer,
        # with the dot products as the only other p x m array.
        values = np.sum(xt ** 2, axis=1)[:, None] + np.sum(xr ** 2, axis=1)
        dots = xt @ xr.T
        dots *= 2.0
        values -= dots
        np.maximum(values, 0.0, out=values)
        values *= -gamma
        return KernelMatrix(np.exp(values, out=values))
    simulated = len(xt)
    if train_states is None:
        train_states = feature_map_states(kind.feature_map, xr)
        np.conjugate(train_states, out=train_states)
        simulated += len(xr)
    elif train_states.shape != (len(xr), 2 ** xr.shape[1]):
        raise ValueError(f"train states of shape {train_states.shape} do not match "
                         f"{len(xr)} train rows of {xr.shape[1]} qubits")
    values = _overlaps(feature_map_states(kind.feature_map, xt), train_states)
    p, m = values.shape
    if not kind.shots.exact:
        values = np.array([
            [_shot_estimate(values[i, j], kind.shots, i, j) for j in range(m)]
            for i in range(p)
        ]).reshape(p, m)
    return KernelMatrix(values, eval_count=p * m, states_simulated=simulated)


def psd_repair(kernel: KernelMatrix, floor: float = 1e-9) -> KernelMatrix:
    """Symmetrize, then shift the diagonal just enough for lambda_min >= floor.

    Intended for shot-noise Gram matrices; an already-PSD matrix only gets
    the (no-op) symmetrization.
    """
    sym = 0.5 * (kernel.values + kernel.values.T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    shift = max(0.0, floor - min_eig)
    if shift > 0.0:
        sym = sym + shift * np.eye(len(sym))
    return KernelMatrix(sym, kernel.eval_count, kernel.states_simulated, kernel.conj_states)


def cache_key(dataset_hash: str, encoder_config: dict, kernel_config: dict, seed: int) -> str:
    payload = json.dumps(
        {
            "dataset": dataset_hash,
            "encoder": encoder_config,
            "kernel": kernel_config,
            "seed": seed,
            "version": CACHE_FORMAT_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_kernel(kernel: KernelMatrix, directory: str | Path, key: str) -> Path:
    """Write the matrix atomically: a temp file in the same directory, then
    a rename, so a reader never sees a half-written entry."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.npz"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{key}.", suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, values=kernel.values, eval_count=np.int64(kernel.eval_count))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path


def load_kernel(directory: str | Path, key: str, size: int | None = None) -> KernelMatrix | None:
    """The cached matrix, or None on a miss.

    An entry that cannot be read, is not a real floating-point matrix, holds
    non-finite values, is not square (``size`` x ``size`` when given) or is
    not symmetric to 1e-12 is logged and treated as a miss, so the caller
    recomputes and overwrites it.
    """
    path = Path(directory) / f"{key}.npz"
    if not path.exists():
        return None
    try:
        with path.open("rb") as fh, np.load(fh) as data:
            values = data["values"]
            eval_count = int(data["eval_count"])
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        log_.warning("ignoring unreadable kernel cache entry %s: %s", path, exc)
        return None
    if values.dtype.kind != "f":
        log_.warning("ignoring kernel cache entry %s: dtype %s is not real floating point",
                     path, values.dtype)
        return None
    values = values.astype(np.float64, copy=False)
    shape_ok = values.ndim == 2 and values.shape[0] == values.shape[1]
    if size is not None:
        shape_ok = values.shape == (size, size)
    if not shape_ok or not np.all(np.isfinite(values)):
        log_.warning("ignoring kernel cache entry %s: shape %s or non-finite values",
                     path, values.shape)
        return None
    asymmetry = float(np.max(np.abs(values - values.T), initial=0.0))
    if asymmetry > _CACHE_SYMMETRY_TOL:
        log_.warning("ignoring kernel cache entry %s: |K - K^T| reaches %.3e",
                     path, asymmetry)
        return None
    return KernelMatrix(values, eval_count)
