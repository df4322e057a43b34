"""Scalar reference coupling: one innovation window at a time.

``weakdep.dependence.theta_mc`` builds the base, primed and starred
windows of a block of replications at a time, in one buffer.  This
module builds them for one replication, slot by slot, from the same
counter-keyed streams, so the tests can check the vectorized coupling
against an independent construction: a primed window replaces the
innovation at one lag by its copy on the primed series, a starred window
replaces every innovation from that lag on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from weakdep.errors import ModelMismatchError, PreconditionError
from weakdep.innovations import (
    SERIES_BASE,
    SERIES_PRIME,
    InnovationLaw,
    get_law,
    law_values,
)


@dataclass(frozen=True)
class InnovationWindow:
    """The most recent ``depth`` innovations of one replication at time
    ``anchor``, newest first: values[j] is the innovation at time anchor - j.

    The key prefix is carried along so coupled variants can be derived.
    ``primed`` marks, per slot, whether the value was taken from the primed
    series instead of the base series.
    """

    seed: int
    replication: int
    law: InnovationLaw
    anchor: int
    values: np.ndarray
    primed: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.values)


def draw_window(law, seed, replication, anchor, depth,
                series=SERIES_BASE) -> InnovationWindow:
    """Materialise a depth-``depth`` window ending at time ``anchor``."""
    law = get_law(law)
    times = anchor - np.arange(depth)
    values = law_values(law, seed, replication, series, times)
    return InnovationWindow(seed=int(seed), replication=int(replication),
                            law=law, anchor=int(anchor), values=values,
                            primed=np.zeros(depth, dtype=bool))


def _prime_slots(window: InnovationWindow, slots: np.ndarray) -> InnovationWindow:
    times = window.anchor - slots
    fresh = law_values(window.law, window.seed, window.replication,
                       SERIES_PRIME, times)
    values = window.values.copy()
    values[slots] = fresh
    primed = window.primed.copy()
    primed[slots] = True
    return replace(window, values=values, primed=primed)


def primed_window(window: InnovationWindow, lag: int) -> InnovationWindow:
    """Replace only the innovation at time anchor - lag by its primed copy."""
    if not 0 <= lag < window.depth:
        raise PreconditionError(
            f"lag {lag} outside window of depth {window.depth}")
    return _prime_slots(window, np.array([lag]))


def starred_window(window: InnovationWindow, lag: int) -> InnovationWindow:
    """Replace the innovations at times <= anchor - lag by primed copies."""
    if not 0 <= lag < window.depth:
        raise PreconditionError(
            f"lag {lag} outside window of depth {window.depth}")
    return _prime_slots(window, np.arange(lag, window.depth))


def _check_window(model, w: InnovationWindow):
    if w.depth < model.required_depth:
        raise PreconditionError(
            f"window depth {w.depth} < required depth {model.required_depth}")
    if w.law.kind != model.law.kind:
        raise ModelMismatchError(
            f"window law {w.law.kind!r} != model law {model.law.kind!r}")


def evaluate(model, w: InnovationWindow) -> float:
    """X at the window's anchor time, read off the model's window readout."""
    _check_window(model, w)
    return float(model.evaluate_values(w.values[:model.required_depth]))
