"""Probe → decide → persist: the measured configuration negotiator.

Given a traced chain signature, :class:`Tuner` answers "which
``(backend, layout, chained-vs-eager)`` should this workload
run under on this machine?":

1. **replay** — if the tuning DB already holds a decision for the
   (machine, signature) pair, use it: zero probes, cross-process;
2. **seed** — otherwise rank the candidate set with the perfmodel
   roofline prediction (:func:`repro.tune.model.rank_candidates`);
3. **probe** — wall-clock the top-k predicted candidates through the
   caller's probe callable (a short real run of the workload);
4. **persist** — store the measured winner for every later process.

Tuning never changes numerics: every candidate is one of the repo's
bitwise-equivalent execution configurations, so the choice only moves
time, never results.  ``REPRO_TUNE_DISABLE=1`` short-circuits the whole
pipeline to a fixed default.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .model import Pins, TuneCandidate, default_candidates, rank_candidates
from .store import (
    TuneStore,
    count_probe,
    count_probe_fallback,
    tuning_disabled,
)

#: How many of the model's top predictions get wall-clock probes.
DEFAULT_TOP_K = 3


@dataclass
class TuneDecision:
    """The negotiated configuration plus its provenance."""

    backend: str
    layout: str
    chained: bool
    #: Operator realization for apps with the axis ("assembled" |
    #: "matfree"); ``None`` for workloads without one (and for
    #: decisions persisted before the axis existed).
    operator: Optional[str] = None
    #: "db" (persisted replay), "probe" (measured now), "model"
    #: (prediction only, probing unavailable), "fallback" (every probe
    #: failed) or "disabled" (REPRO_TUNE_DISABLE).
    source: str = "probe"
    probed: int = 0
    probe_s: Optional[float] = None

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict, source: str = "db") -> "TuneDecision":
        return cls(
            backend=str(doc.get("backend", "vectorized")),
            layout=str(doc.get("layout", "aos")),
            chained=bool(doc.get("chained", True)),
            operator=doc.get("operator"),
            source=source,
            probed=int(doc.get("probed", 0)),
            probe_s=doc.get("probe_s"),
        )

    def candidate(self) -> TuneCandidate:
        return TuneCandidate(self.backend, self.layout, self.chained,
                             self.operator)


def _default_decision(pins: Optional[Pins], source: str) -> TuneDecision:
    """The untuned configuration (current driver defaults), pin-aware."""
    pins = pins or Pins()
    return TuneDecision(
        backend="vectorized",
        layout=pins.layout or "aos",
        chained=True if pins.chained is None else pins.chained,
        operator=pins.operator,
        source=source,
    )


class Tuner:
    """Negotiates and remembers execution configurations."""

    def __init__(
        self,
        store: Optional[TuneStore] = None,
        top_k: int = DEFAULT_TOP_K,
    ) -> None:
        self.store = store if store is not None else TuneStore()
        self.top_k = int(top_k)

    # ------------------------------------------------------------------
    def negotiate(
        self,
        signature: str,
        probe: Optional[Callable[[TuneCandidate], float]] = None,
        candidates: Optional[Sequence[TuneCandidate]] = None,
        pins: Optional[Pins] = None,
        loop_infos: Optional[Sequence[Dict]] = None,
        calibration=None,
    ) -> TuneDecision:
        """Resolve one chain signature to a :class:`TuneDecision`.

        ``probe(candidate) -> seconds`` runs a short measured trial; a
        probe that raises counts as a probe fallback and drops its
        candidate.  ``loop_infos`` feeds the model ranking (empty means
        overhead terms alone order the candidates).
        """
        if tuning_disabled():
            return _default_decision(pins, "disabled")
        doc = self.store.load(signature)
        if doc is not None:
            decision = TuneDecision.from_dict(doc, source="db")
            if _respects_pins(decision, pins):
                return decision
            # The caller pinned an axis the persisted decision moves
            # (e.g. chained=False on a workload stored as chained):
            # override only the pinned axes and keep the measured rest.
            # Never renegotiate here — pinned variants of one workload
            # must share the stored backend/layout, or an eager-pinned
            # and a chained-pinned run of the same sim could land on
            # different backends and stop being bitwise comparable.
            return _apply_pins(decision, pins)
        cands = list(
            candidates
            if candidates is not None
            else default_candidates(pins)
        )
        if not cands:
            return _default_decision(pins, "fallback")
        ranked = rank_candidates(loop_infos or [], cands, calibration)
        if probe is None:
            best = ranked[0]
            return TuneDecision(
                best.backend, best.layout, best.chained, best.operator,
                source="model",
            )
        measured: List[tuple] = []
        for cand in ranked[: max(1, self.top_k)]:
            count_probe()
            try:
                measured.append((float(probe(cand)), cand))
            except Exception:
                count_probe_fallback()
        if not measured:
            return _default_decision(pins, "fallback")
        best_s, best = min(measured, key=lambda t: t[0])
        decision = TuneDecision(
            best.backend, best.layout, best.chained, best.operator,
            source="probe", probed=len(measured), probe_s=best_s,
        )
        if doc is None:
            # First negotiation for this workload wins the slot; later
            # runs (pinned or not) derive from it via _apply_pins, so
            # all variants of one workload stay on one backend.
            self.store.store(signature, decision.to_dict())
        return decision


def _respects_pins(decision: TuneDecision, pins: Optional[Pins]) -> bool:
    if pins is None:
        return True
    if pins.layout is not None and decision.layout != pins.layout:
        return False
    if pins.chained is not None and decision.chained != pins.chained:
        return False
    if pins.operator is not None and decision.operator != pins.operator:
        return False
    return True


def _apply_pins(decision: TuneDecision, pins: Optional[Pins]) -> TuneDecision:
    """The stored decision with only the pinned axes overridden."""
    pins = pins or Pins()
    return TuneDecision(
        backend=decision.backend,
        layout=decision.layout if pins.layout is None else pins.layout,
        chained=decision.chained if pins.chained is None else pins.chained,
        operator=(decision.operator if pins.operator is None
                  else pins.operator),
        source="db",
        probed=decision.probed,
        probe_s=decision.probe_s,
    )
