"""PARA: Probabilistic Adjacent Row Activation.

The paper's advocated long-term solution (§II-C): every time the
controller closes a row, with a low probability ``p`` it refreshes the
adjacent rows.  No counters, no storage; protection is statistical.

The closed-form analysis mirrors the ISCA 2014 treatment: for a victim
to flip, an adjacent aggressor must be activated ``N_th`` times while
the victim receives *no* PARA refresh.  Each aggressor activation
refreshes the victim with probability ``p`` (this implementation
refreshes both neighbors when it triggers), so one hammering attempt
survives with probability ``(1 - p)^N_th`` — astronomically small for
practical ``p`` and observed thresholds, yielding failure rates far
below hard-disk annualized failure rates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem
from repro.utils.rng import derive_rng
from repro.utils.units import SECONDS_PER_YEAR
from repro.utils.validation import check_positive, check_probability

#: Uniforms drawn per refill of PARA's coin buffer.
_DRAW_BLOCK = 1024


class Para:
    """The PARA mitigation hook.

    Args:
        p: per-activation neighbor-refresh probability.
        distance: adjacency distance to refresh (1 = immediate neighbors).
        seed: randomness for the trigger coin.
    """

    def __init__(self, p: float = 0.001, distance: int = 1, seed: int = 0) -> None:
        check_probability("p", p)
        self.name = f"para(p={p:g})"
        self.p = p
        self.distance = distance
        self._rng = derive_rng(seed, "para")
        # Uniforms are drawn in blocks; ``_draws[_next:]`` are drawn but
        # not yet used.  ``Generator.random(n)`` yields the same values
        # as n scalar draws, so the coin sequence is the scalar one.
        self._draws = np.empty(0)
        self._next = 0
        self.triggers = 0
        self._extra_refreshes = 0

    def _uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` unused uniforms (a view; not marked used)."""
        if len(self._draws) - self._next < n:
            fresh = self._rng.random(max(n, _DRAW_BLOCK))
            self._draws = np.concatenate((self._draws[self._next:], fresh))
            self._next = 0
        return self._draws[self._next:self._next + n]

    def scan(self, controller, bank: int, rows, times) -> int:
        """Use one draw per activation up to the first that triggers."""
        n = len(rows)
        hits = np.flatnonzero(self._uniforms(n) < self.p)
        quiet = int(hits[0]) if len(hits) else n
        self._next += quiet
        if quiet and phys.physics_on:
            phys.get_collector().audit_count("para", "draw", quiet)
        return quiet

    def on_activate(self, controller, bank: int, logical_row: int, time_ns: float) -> None:
        """With probability ``p``, refresh the aggressor's neighbors."""
        if phys.physics_on:
            # Draws are one-per-activation, so they stay an audit count;
            # the (rare) trigger below gets a full typed event.
            phys.get_collector().audit_count("para", "draw")
        draw = self._uniforms(1)[0]
        self._next += 1
        if draw < self.p:
            self.triggers += 1
            if telem.metrics_on:
                telem.counter("para_triggers_total").inc()
            if phys.physics_on:
                phys.get_collector().audit(
                    "para", "refresh", time_ns, bank=bank,
                    aggressor=logical_row, distance=self.distance)
            self._extra_refreshes += controller.refresh_neighbors(bank, logical_row, self.distance)
            # Traced after the refreshes, which commit the bank's pending
            # activations: their events then precede this one on both
            # engines, as the controller's mitigation_refresh does.
            if telem.trace_on:
                telem.trace("para_refresh", t=time_ns, bank=bank, aggressor=logical_row)

    def extra_refresh_ops(self) -> int:
        """Victim refreshes injected so far."""
        return self._extra_refreshes


# ----------------------------------------------------------------------
# Closed-form reliability analysis
# ----------------------------------------------------------------------
def survival_probability(p: float, n_th: float) -> float:
    """Probability one hammering attempt reaches ``n_th`` activations
    without the victim ever being PARA-refreshed."""
    check_probability("p", p)
    check_positive("n_th", n_th)
    if p >= 1.0:
        return 0.0
    # Computed in log space: (1-p)^n_th underflows for practical values.
    return math.exp(n_th * math.log1p(-p))


def log10_survival_probability(p: float, n_th: float) -> float:
    """Base-10 logarithm of :func:`survival_probability` (underflow-safe)."""
    check_probability("p", p)
    check_positive("n_th", n_th)
    if p >= 1.0:
        return -math.inf
    return n_th * math.log1p(-p) / math.log(10.0)


def failures_per_year(p: float, n_th: float, tRC_ns: float = 49.5, duty_cycle: float = 1.0) -> float:
    """Expected RowHammer-induced failures per year of continuous hammering.

    Args:
        p: PARA probability.
        n_th: victim hammer threshold (activations).
        tRC_ns: per-activation cost, setting the attempt rate.
        duty_cycle: fraction of wall-clock spent hammering.
    """
    check_positive("tRC_ns", tRC_ns)
    check_probability("duty_cycle", duty_cycle)
    acts_per_year = duty_cycle * SECONDS_PER_YEAR * 1e9 / tRC_ns
    attempts_per_year = acts_per_year / n_th
    log10_fail = log10_survival_probability(p, n_th) + math.log10(max(attempts_per_year, 1e-300))
    if log10_fail < -300:
        return 0.0
    return 10.0 ** log10_fail


def log10_failures_per_year(p: float, n_th: float, tRC_ns: float = 49.5, duty_cycle: float = 1.0) -> float:
    """Log10 of :func:`failures_per_year`, stable for astronomically small rates."""
    acts_per_year = duty_cycle * SECONDS_PER_YEAR * 1e9 / tRC_ns
    attempts_per_year = acts_per_year / n_th
    return log10_survival_probability(p, n_th) + math.log10(attempts_per_year)


def recommended_p(n_th: float, target_log10_failures_per_year: float = -15.0, tRC_ns: float = 49.5) -> float:
    """Smallest ``p`` meeting a yearly failure-rate target.

    Solves ``log10_failures_per_year(p, n_th) <= target`` for ``p``.
    """
    check_positive("n_th", n_th)
    acts_per_year = SECONDS_PER_YEAR * 1e9 / tRC_ns
    attempts = acts_per_year / n_th
    # n_th * log10(1-p) <= target - log10(attempts)
    needed = (target_log10_failures_per_year - math.log10(attempts)) / n_th
    return float(1.0 - 10.0 ** needed)


def performance_overhead_fraction(p: float, victim_rows: int = 2) -> float:
    """Fraction of extra row activations PARA injects.

    Each activation triggers with probability ``p`` and refreshes
    ``victim_rows`` rows, each costing one activation-equivalent.
    """
    check_probability("p", p)
    return p * victim_rows


def simulate_attempt_survival(p: float, n_th: int, attempts: int, seed: int = 0) -> int:
    """Monte-Carlo cross-check of the closed form: run ``attempts``
    hammering attempts of ``n_th`` activations each; return how many
    complete without a single PARA trigger.

    Only feasible for deliberately weakened (small ``n_th``·``p``)
    parameters — which is the point of pairing it with the closed form.
    """
    rng = derive_rng(seed, "para-mc")
    survived = 0
    for _ in range(attempts):
        if not np.any(rng.random(n_th) < p):
            survived += 1
    return survived
