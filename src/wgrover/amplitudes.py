"""Amplitude distributions encoding weighted databases.

A weighted database {(y_1, p_1), ..., (y_N, p_N)} is encoded as a complex
amplitude vector P(n) over integer basis labels with |P(n)|^2 = p_n.  This
module builds the two families used throughout the package (uniform and
truncated coherent-state distributions), and load_spec builds either of
them, or a weight table as real amplitudes sqrt(p_n), from a JSON spec.

Coherent-state amplitudes are evaluated in the log domain (log-gamma
factorials plus a shifted log-sum-exp normalization) so that large photon
numbers neither overflow nor lose the relative structure of the tail.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LabelNotFoundError

NORM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-6
# Upper bound on a spec's n and weights list, checked before any allocation.
MAX_ENTRIES = 10**6


@dataclass(frozen=True, eq=False)
class AmplitudeDistribution:
    """Complex amplitudes P(n) over consecutive ascending integer labels.

    labels is a range with step 1 inside the int64 range [-2^63, 2^63),
    where the CSV writers hold them.  Invariants checked at construction:
    at least two entries, finite amplitudes with unit total probability
    (within 1e-12).  Instances are immutable; the amplitude array is
    marked read-only.
    """

    labels: range
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        labels = self.labels
        if not (isinstance(labels, range) and labels.step == 1):
            raise DomainError("labels must be a range with step 1")
        if not (-2**63 <= labels.start and labels.stop <= 2**63):
            raise DomainError(f"labels must lie in [-2^63, 2^63), got {labels!r}")
        if len(labels) < 2:
            raise DomainError(
                f"a database needs at least 2 entries, got {len(labels)} "
                "(a single entry is found in one step and is excluded)"
            )
        if amps.ndim != 1 or len(labels) != amps.shape[0]:
            raise DomainError("labels and amplitudes must be 1-d and equally long")
        total = float(np.sum(np.abs(amps) ** 2))
        # a NaN or infinite amplitude makes the sum NaN or infinite
        if not math.isfinite(total):
            raise DomainError(f"amplitudes must be finite: sum |P|^2 = {total!r}")
        if abs(total - 1.0) > NORM_TOL:
            raise DomainError(
                f"amplitudes are not normalized: sum |P|^2 = {total!r} "
                f"(must be 1 within {NORM_TOL})"
            )
        amps.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, k: int) -> int:
        """Position of label k in the amplitude array, in O(1)."""
        try:
            i = operator.index(k) - self.labels.start
        except TypeError:
            i = -1
        if not 0 <= i < len(self.labels):
            raise LabelNotFoundError(
                f"label {k} not in distribution (labels {self.labels[0]}..{self.labels[-1]})"
            )
        return i

    def amplitude(self, k: int) -> complex:
        """P(k) for basis label k."""
        return complex(self.amplitudes[self.index_of(k)])

    def proportions(self) -> np.ndarray:
        """All |P(n)|^2 in label order, by the comparison table's expression."""
        return np.float_power(np.hypot(self.amplitudes.real, self.amplitudes.imag), 2)


def target_proportions(mag, labels=None):
    """|P(k)|^2 of one |P(k)| or an array of them; raises unless each lies in (0, 1).

    This is the package's one degenerate-target rule: the dynamics need
    0 < |P(k)|^2 < 1.  The test is on the square, so a |P(k)| below about
    1.57e-162, whose square underflows to 0, is degenerate, and so is NaN.
    np.float_power calls the same libm pow as abs(p) ** 2.  labels, indexed
    like mag, names the first offending label in the message.
    """
    props = np.float_power(mag, 2)
    bad = ~((props > 0.0) & (props < 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        k = "k" if labels is None else labels[i]
        raise DomainError(
            f"|P({k})|^2 = {float(np.ravel(props)[i])!r} is degenerate; "
            "the target needs 0 < |P(k)|^2 < 1"
        )
    return props


def uniform(n: int) -> AmplitudeDistribution:
    """Uniform distribution P(k) = 1/sqrt(N) over labels 1..N.

    This is the unstructured-search special case; N must be at least 2.
    """
    if n < 2:
        raise DomainError(f"uniform database needs N >= 2, got {n}")
    amps = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    return AmplitudeDistribution(labels=range(1, n + 1), amplitudes=amps)


def _log_sum_exp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def truncated_coherent(alpha: complex, q1: int, n: int) -> AmplitudeDistribution:
    """Coherent-state amplitudes restricted to photon numbers q1..q1+N.

    The amplitude at label k is N_q e^{-|a|^2/2} a^k / sqrt(k!), which for
    complex alpha carries the phase arg(alpha)*k.  The truncation window
    contains N+1 labels.  Magnitudes are computed as exp(log-magnitude)
    relative to the in-window maximum, then renormalized exactly, so even
    deep Poisson tails keep their correct relative size.
    """
    lam = _check_coherent_args(alpha, q1, n)
    ks = np.arange(q1, q1 + n + 1)
    lgam = np.array([math.lgamma(k + 1) for k in ks])
    # log |P(k)| up to the common normalization constant
    log_mag = ks * (0.5 * math.log(lam)) - 0.5 * lgam
    log_mag -= 0.5 * _log_sum_exp(2.0 * log_mag)
    phase = cmath.phase(complex(alpha))
    amps = (1j * phase) * ks
    np.exp(amps, out=amps)
    amps *= np.exp(log_mag)
    amps /= np.linalg.norm(amps)
    return AmplitudeDistribution(labels=range(q1, q1 + n + 1), amplitudes=amps)


def _weights_distribution(weights: list) -> AmplitudeDistribution:
    """A weight table as real amplitudes sqrt(w / fsum w), phase 0, over labels 1..N.

    Only numbers are accepted: JSON booleans and strings are rejected, not
    converted.  The sum must already be within 1e-6 of 1; anything further
    off is rejected as a malformed database rather than silently rescaled.
    The renormalized proportions must be positive, finite and sum to 1
    within 1e-12.
    """
    # one check per distinct entry type, not per entry
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, weights))):
        raise DomainError("'weights' must be a list of numbers")
    total = math.fsum(weights)
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise DomainError(
            f"weights sum to {total!r}; must be within {WEIGHT_SUM_TOL} of 1"
        )
    props = np.array(weights, dtype=np.float64) / total
    if (props <= 0).any():
        raise DomainError("all proportions must be positive")
    total = math.fsum(props.tolist())
    if not math.isfinite(total):
        raise DomainError(f"proportions must be finite: they sum to {total!r}")
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(
            f"proportions sum to {total!r}, must be 1 within {NORM_TOL}"
        )
    return AmplitudeDistribution(labels=range(1, len(weights) + 1),
                                 amplitudes=np.sqrt(props).astype(np.complex128))


def load_spec(spec: dict) -> AmplitudeDistribution:
    """Build a distribution from the JSON run-spec object.

    Accepted kinds:
      {"kind": "uniform", "n": 20}
      {"kind": "coherent", "alpha_re": 0.8, "alpha_im": 0.0, "q1": 1, "n": 20}
      {"kind": "weights", "weights": [...]}

    n and the length of the weights list are capped at MAX_ENTRIES; the
    Python constructors are not.
    """
    if not isinstance(spec, dict):
        raise DomainError(f"distribution spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "uniform":
            return uniform(_size_field(spec))
        if kind == "coherent":
            alpha = complex(_real(spec["alpha_re"], "alpha_re"),
                            _real(spec.get("alpha_im", 0.0), "alpha_im"))
            return truncated_coherent(alpha, _int_field(spec, "q1"), _size_field(spec))
        if kind == "weights":
            weights = spec["weights"]
            if not isinstance(weights, (list, tuple)):
                raise DomainError("'weights' must be a list of numbers")
            if len(weights) > MAX_ENTRIES:
                raise DomainError(
                    f"'weights' may have at most {MAX_ENTRIES} entries, got {len(weights)}"
                )
            return _weights_distribution(weights)
    except KeyError as exc:
        raise DomainError(f"distribution spec is missing field {exc}") from None
    except DomainError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed distribution spec: {exc}") from None
    raise DomainError(f"unknown distribution kind {kind!r}")


def _int_field(spec: dict, name: str) -> int:
    """spec[name] as an integer; JSON floats and booleans are rejected, not truncated."""
    value = spec[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"'{name}' must be an integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """A spec's number as a float; JSON booleans and strings are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"'{name}' must be a number, got {value!r}")
    return float(value)


def _size_field(spec: dict) -> int:
    """spec["n"] as an integer no larger than MAX_ENTRIES."""
    n = _int_field(spec, "n")
    if n > MAX_ENTRIES:
        raise DomainError(f"'n' must be <= {MAX_ENTRIES}, got {n}")
    return n


def _check_coherent_args(alpha: complex, q1: int, n: int) -> float:
    """|alpha|^2, once the arguments are checked."""
    if not cmath.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    try:
        lam = abs(alpha) ** 2
    except OverflowError:
        lam = math.inf
    # the amplitudes are built from log |alpha|^2
    if not 0 < lam < math.inf:
        raise DomainError(f"|alpha_re + i alpha_im|^2 must be a positive finite double, i.e. "
                          f"|alpha| from about 2.2e-162 to 1.3e154, got alpha = {alpha!r}")
    if q1 < 0:
        raise DomainError(f"q1 must be a non-negative photon number, got {q1}")
    if q1 + n >= 2**63:
        raise DomainError(f"labels q1..q1+N must fit in 64 bits, got q1 + N = {q1 + n}")
    if n < 2:
        raise DomainError(f"coherent window needs N >= 2, got {n}")
    return lam
