"""Deterministic fault injection for exercising recovery paths.

Every recovery mechanism in this codebase — training checkpoint/resume,
the serve watchdog, per-request serial fallback, client retries after a
dropped connection — is only as good as its test coverage, and crashes
are hard to schedule from outside.  This module lets tests (and chaos
jobs) schedule them *exactly*: production code calls :func:`hit` at
named injection points, and an armed :class:`FaultPlan` decides whether
that particular hit kills the process, raises, sleeps, or drops a
connection.

Disarmed (the default, and the only state production ever runs in) a
:func:`hit` call is one module-global ``None`` check — no allocation
beyond the kwargs dict, no locking, no plan scan.

Sites currently wired in::

    trainer.iteration  top of each training step            (iteration, member)
    serve.compute      batcher thread, before a fused call  (op, batch)
    serve.connection   daemon, before each frame read       (peer)

Actions:

``kill``
    ``os._exit(exit_code)`` — instant death, no cleanup, no atexit: the
    in-process equivalent of ``kill -9``.
``raise``
    raise :class:`FaultInjected` out of the site.
``delay``
    ``time.sleep(delay_seconds)`` inside the site (wedge simulation).
``drop``
    raise :class:`ConnectionDropInjected`; connection-owning sites
    translate it into an abrupt close (a reset, from the peer's side).

Rules gate on the *matching hit count per process*: skip the first
``after`` hits, fire on the next ``times`` (0 = forever), optionally
with probability drawn from a ``seed``-determined stream so stochastic
plans replay identically.

Cross-process propagation: ``arm(plan, propagate=True)`` exports the
plan via the ``REPRO_FAULTS`` environment variable, which child
processes (``repro`` CLI runs, serving daemons) re-arm from
(:func:`load_from_env`).  Hit counters are per-process, so a restarted
child starts counting from zero — a test that wants a one-shot kill
should start the child inside the armed window, then call
:func:`unpropagate` before restarting it, so the replacement comes up
disarmed.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

logger = logging.getLogger("repro.faults")

__all__ = [
    "ACTIONS",
    "ENV_VAR",
    "ConnectionDropInjected",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active",
    "arm",
    "disarm",
    "fired",
    "hit",
    "injected",
    "load_from_env",
    "unpropagate",
]

ENV_VAR = "REPRO_FAULTS"
ACTIONS = ("kill", "raise", "delay", "drop")


class FaultInjected(RuntimeError):
    """An armed ``raise`` rule fired at an injection site."""

    def __init__(self, site: str, message: str):
        self.site = site
        super().__init__(message)


class ConnectionDropInjected(FaultInjected):
    """An armed ``drop`` rule fired; the site closes its connection."""


@dataclass
class FaultRule:
    """One scheduled fault: where, what, and on which hits.

    ``match`` entries are compared by equality against the context the
    site passes to :func:`hit`; a rule only counts hits whose context
    matches (so ``match={"op": "predict"}`` schedules against the
    ``predict`` dispatches only, not every fused call).
    """

    site: str
    action: str = "raise"
    match: Dict[str, Any] = field(default_factory=dict)
    after: int = 0  # skip this many matching hits first
    times: int = 1  # then fire on this many (0 = every one)
    probability: float = 1.0
    delay_seconds: float = 0.0
    exit_code: int = 137
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; one of {ACTIONS}")
        if self.after < 0 or self.times < 0:
            raise ValueError("after/times must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass
class FaultPlan:
    """A seedable schedule of :class:`FaultRule` entries."""

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "rules": [asdict(rule) for rule in self.rules]}
        )

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        data = json.loads(blob)
        rules = [FaultRule(**rule) for rule in data.get("rules", [])]
        return cls(rules=rules, seed=int(data.get("seed", 0)))


class _Registry:
    """Armed plan + per-process hit counters (thread-safe)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._hits: Dict[int, int] = {}  # rule index -> matching hit count
        self._rng = random.Random(plan.seed)
        self.fired: Dict[str, int] = {}  # site -> fired count

    def hit(self, site: str, context: Dict[str, Any]) -> None:
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if any(context.get(key) != value for key, value in rule.match.items()):
                continue
            with self._lock:
                count = self._hits.get(index, 0)
                self._hits[index] = count + 1
                if count < rule.after:
                    continue
                if rule.times and count >= rule.after + rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self.fired[site] = self.fired.get(site, 0) + 1
            self._fire(rule, site, context)

    def _fire(self, rule: FaultRule, site: str, context: Dict[str, Any]) -> None:
        detail = rule.message or (
            f"injected {rule.action} at {site} (pid {os.getpid()}, context {context})"
        )
        if rule.action == "delay":
            logger.warning(
                "fault injection: sleeping %.3fs at %s", rule.delay_seconds, site
            )
            time.sleep(rule.delay_seconds)
            return
        if rule.action == "kill":
            logger.warning("fault injection: os._exit(%d) at %s", rule.exit_code, site)
            os._exit(rule.exit_code)
        if rule.action == "drop":
            raise ConnectionDropInjected(site, detail)
        raise FaultInjected(site, detail)


_REGISTRY: Optional[_Registry] = None


def hit(site: str, **context: Any) -> None:
    """Injection point: a no-op unless a plan is armed in this process."""
    registry = _REGISTRY
    if registry is None:
        return
    registry.hit(site, context)


def active() -> bool:
    """True when a plan is armed in this process."""
    return _REGISTRY is not None


def fired(site: str) -> int:
    """How many times any rule has fired at ``site`` (this process)."""
    registry = _REGISTRY
    return 0 if registry is None else registry.fired.get(site, 0)


def arm(plan: FaultPlan, propagate: bool = False) -> FaultPlan:
    """Arm ``plan`` in this process; optionally export it to children.

    With ``propagate=True`` the plan is also written to the
    ``REPRO_FAULTS`` environment variable so child processes started
    *while it is set* self-arm (see :func:`load_from_env`).
    """
    global _REGISTRY
    _REGISTRY = _Registry(plan)
    if propagate:
        os.environ[ENV_VAR] = plan.to_json()
    return plan


def unpropagate() -> None:
    """Stop exporting the plan to new children (armed ones stay armed)."""
    os.environ.pop(ENV_VAR, None)


def disarm() -> None:
    """Disarm this process and stop exporting to children."""
    global _REGISTRY
    _REGISTRY = None
    unpropagate()


@contextmanager
def injected(plan: FaultPlan, propagate: bool = False) -> Iterator[FaultPlan]:
    """``with faults.injected(plan): ...`` — arm for the block, then disarm."""
    arm(plan, propagate=propagate)
    try:
        yield plan
    finally:
        disarm()


def load_from_env() -> bool:
    """Arm from ``REPRO_FAULTS`` if set (child-process entry hook).

    Malformed values are ignored with a warning — a stale variable in a
    shell profile must not take down every CLI run.
    """
    blob = os.environ.get(ENV_VAR, "").strip()
    if not blob:
        return False
    try:
        plan = FaultPlan.from_json(blob)
    except (ValueError, KeyError, TypeError) as exc:
        logger.warning("ignoring malformed %s: %s", ENV_VAR, exc)
        return False
    arm(plan)
    return True
