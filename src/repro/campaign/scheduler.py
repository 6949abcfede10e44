"""The campaign scheduler: partition, dispatch, retry, dedup, resume.

:func:`run_campaign_spec` turns a :class:`CampaignSpec` into work units,
journals the partition, then drives every unit to completion over one of
three backends — inline (``jobs=1``: execute in this process, the
deterministic reference), the PR-6 warm pool (``jobs>1``: one staged chunk
per unit, completion-ordered collection), or remote ``kcc-check serve``
endpoints (one client per endpoint, whole units over the wire).  Because a
unit's result depends only on its identity, the three backends produce
byte-identical campaigns; the journal records which one ran nothing at all.

Failure policy: a unit attempt that raises is journaled (``failed`` record,
error text preserved) and retried with capped exponential backoff up to
``retries`` times; a unit that exhausts its retries aborts the campaign
with :class:`CampaignError` — the journal keeps everything completed, so a
later ``resume`` continues from exactly there.

Findings are deduplicated **globally**: the first unit to journal a
signature owns it; later sightings update counters only.  With
``bias=True`` and a rotating-injection spec the dispatcher also weights
pending units toward the injection families with the fewest distinct
signatures so far — coverage-guided scheduling that only reorders
*execution*; the canonical result is order-independent either way.

:func:`resume_campaign` recovers the journal (dropping a crash-truncated
tail), replays it into exact state, and re-enters the same drive loop with
only the missing units pending — zero completed units re-execute, which
the journal's ``duplicate_done`` counter proves.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.campaign.aggregate import CampaignAggregate, load_baseline
from repro.campaign.journal import (
    FSYNC_EVERY,
    JournalState,
    JournalWriter,
    campaign_record,
    claim_record,
    done_record,
    failed_record,
    finding_record,
    load_journal,
    merge_journals,
    replay,
    unit_record,
    write_journal,
)
from repro.campaign.workunit import CampaignSpec, campaign_units, execute_unit


class CampaignError(Exception):
    """A campaign could not run to completion; the journal holds progress."""


def backoff_delay(attempt: int, *, base: float, cap: float) -> float:
    """Capped exponential backoff: ``min(cap, base * 2**(attempt-1))``."""
    return min(cap, base * (2 ** max(0, attempt - 1)))


@dataclass(frozen=True)
class ScheduleConfig:
    """How to drive a campaign (orthogonal to *what* the campaign is)."""

    #: Warm-pool width; 1 means inline execution in this process.
    jobs: int = 1
    #: ``kcc-check serve`` endpoints; non-empty switches to remote dispatch.
    endpoints: tuple[str, ...] = ()
    #: Retries per unit after the first attempt.
    retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    #: Coverage-guided bias: prefer families with the fewest signatures.
    bias: bool = False
    #: Journal full per-case records (byte-exact reconstruction) or only
    #: summaries/findings (millions-of-programs scale).
    store_records: bool = True
    fsync_every: int = FSYNC_EVERY
    #: Run only units with partition index in ``[lo, hi)`` — the sharding
    #: knob: disjoint slices on different machines, then ``merge``.
    units_slice: Optional[tuple[int, int]] = None
    #: Baseline JSON path for regression deltas (``None``: no deltas).
    baseline: Optional[str] = None
    #: Called with an aggregate snapshot after every completed unit.
    progress: Optional[Callable[[dict[str, Any]], None]] = None


@dataclass
class CampaignOutcome:
    """What a drive loop returns: exact state plus the canonical result."""

    spec: CampaignSpec
    state: JournalState
    aggregate: CampaignAggregate
    #: Units executed by *this* invocation (a resume executes only the gap).
    executed: int = 0
    #: Units already complete when this invocation started.
    skipped: int = 0
    journal_path: Optional[str] = None
    #: Crash-truncated tail bytes dropped by recovery (resume only).
    recovered_bytes: int = 0

    @property
    def complete(self) -> bool:
        return self.state.complete

    def to_dict(self) -> dict[str, Any]:
        """The canonical order-independent result view (byte-comparable)."""
        return self.aggregate.to_dict()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_campaign_spec(
    spec: CampaignSpec,
    journal_path: str | Path,
    config: Optional[ScheduleConfig] = None,
) -> CampaignOutcome:
    """Partition a fresh campaign, journal it, and drive it to completion."""
    config = config or ScheduleConfig()
    path = Path(journal_path)
    if path.exists() and path.stat().st_size > 0:
        raise CampaignError(
            f"journal {path} already exists; use resume_campaign() "
            "(CLI: kcc-check campaign resume / run --resume-from)"
        )
    units = campaign_units(spec)
    records = [campaign_record(spec, len(units))]
    records.extend(unit_record(unit) for unit in units)
    state = replay(records)
    with JournalWriter(path, fsync_every=config.fsync_every) as writer:
        for record in records:
            writer.append(record)
        writer.sync()  # the partition is the resume contract; pin it now
        return _drive(state, writer, config, journal_path=str(path))


def resume_campaign(
    journal_path: str | Path,
    config: Optional[ScheduleConfig] = None,
) -> CampaignOutcome:
    """Recover a journal, replay it, and finish whatever is missing."""
    config = config or ScheduleConfig()
    path = Path(journal_path)
    if not path.exists():
        raise CampaignError(f"no journal at {path}")
    state, dropped = load_journal(path)
    if state.spec is None:
        raise CampaignError(f"journal {path} has no campaign header")
    with JournalWriter(path, fsync_every=config.fsync_every) as writer:
        outcome = _drive(state, writer, config, journal_path=str(path))
    outcome.recovered_bytes = dropped
    return outcome


def campaign_status(
    journal_path: str | Path,
    *,
    baseline: Optional[str] = None,
) -> CampaignOutcome:
    """Read-only view of a journal: state + aggregate, nothing executed."""
    if not Path(journal_path).exists():
        raise CampaignError(f"no journal at {journal_path}")
    state, _ = load_journal(journal_path)
    if state.spec is None:
        raise CampaignError(f"journal {journal_path} has no campaign header")
    aggregate = _fold_state(state, baseline)
    return CampaignOutcome(
        spec=state.spec,
        state=state,
        aggregate=aggregate,
        skipped=state.done_units,
        journal_path=str(journal_path),
    )


def merge_campaign_journals(
    inputs: list[str | Path],
    out: str | Path,
    *,
    baseline: Optional[str] = None,
) -> CampaignOutcome:
    """Merge shard journals into ``out`` and return the merged view."""
    missing = [str(path) for path in inputs if not Path(path).exists()]
    if missing:
        raise CampaignError(f"no journal at {', '.join(missing)}")
    records = merge_journals(inputs)
    write_journal(out, records)
    return campaign_status(out, baseline=baseline)


# ---------------------------------------------------------------------------
# The drive loop
# ---------------------------------------------------------------------------


def _fold_state(state: JournalState, baseline: Optional[str]) -> CampaignAggregate:
    aggregate = CampaignAggregate(
        state.spec_digest or "?",
        state.units_total,
        baseline=load_baseline(baseline),
    )
    for unit_id, unit in state.units.items():
        result = state.results.get(unit_id)
        if result is not None:
            aggregate.add_unit(result)
    return aggregate


def _family_counts(state: JournalState) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in state.findings.values():
        family = finding.get("family") or "unknown"
        counts[family] = counts.get(family, 0) + 1
    return counts


@dataclass
class _Dispatcher:
    """Shared bookkeeping between the three execution backends."""

    spec: CampaignSpec
    state: JournalState
    writer: JournalWriter
    config: ScheduleConfig
    aggregate: CampaignAggregate
    executed: int = 0
    attempts: dict[str, int] = field(default_factory=dict)

    @property
    def header(self) -> tuple:
        return (self.spec.to_dict(), self.spec.options or None)

    def pick(self, pending: list[dict[str, Any]]) -> dict[str, Any]:
        """Next unit to dispatch; coverage-biased when configured."""
        if not (self.config.bias and len(pending) > 1):
            return pending.pop(0)
        counts = _family_counts(self.state)
        best = min(
            range(len(pending)),
            key=lambda i: (
                counts.get(pending[i]["params"].get("inject"), 0),
                pending[i]["index"],
            ),
        )
        return pending.pop(best)

    def claim(self, unit: dict[str, Any], worker: str) -> int:
        unit_id = unit["id"]
        attempt = self.attempts.get(unit_id, 0) + 1
        self.attempts[unit_id] = attempt
        self.writer.append(claim_record(unit_id, attempt, worker))
        return attempt

    def commit(self, unit: dict[str, Any], result: dict[str, Any]) -> None:
        unit_id = unit["id"]
        self.writer.append(
            done_record(unit_id, result, store_records=self.config.store_records)
        )
        for finding in result.get("findings", ()):
            signature = finding.get("signature", "unknown")
            if signature not in self.state.findings:
                self.state.findings[signature] = finding
                self.writer.append(finding_record(unit_id, finding))
        self.state.digests[unit_id] = result["digest"]
        self.state.results[unit_id] = result
        self.aggregate.add_unit(result)
        self.executed += 1
        if self.config.progress is not None:
            snapshot = self.aggregate.snapshot()
            snapshot["unit"] = unit_id
            self.config.progress(snapshot)

    def fail(self, unit: dict[str, Any], error: Exception) -> bool:
        """Journal a failed attempt; returns whether to retry."""
        unit_id = unit["id"]
        attempt = self.attempts.get(unit_id, 1)
        self.writer.append(
            failed_record(unit_id, attempt, f"{type(error).__name__}: {error}")
        )
        if attempt > self.config.retries:
            return False
        time.sleep(
            backoff_delay(
                attempt,
                base=self.config.backoff_base,
                cap=self.config.backoff_cap,
            )
        )
        return True


def _drive(
    state: JournalState,
    writer: JournalWriter,
    config: ScheduleConfig,
    *,
    journal_path: Optional[str] = None,
) -> CampaignOutcome:
    spec = state.spec
    assert spec is not None
    aggregate = _fold_state(state, config.baseline)
    pending = state.pending
    if config.units_slice is not None:
        lo, hi = config.units_slice
        pending = [unit for unit in pending if lo <= unit["index"] < hi]
    dispatcher = _Dispatcher(spec, state, writer, config, aggregate)
    skipped = state.done_units
    if pending:
        if config.endpoints:
            _drive_endpoints(dispatcher, pending)
        elif config.jobs > 1:
            _drive_pool(dispatcher, pending)
        else:
            _drive_inline(dispatcher, pending)
    writer.sync()
    return CampaignOutcome(
        spec=spec,
        state=state,
        aggregate=aggregate,
        executed=dispatcher.executed,
        skipped=skipped,
        journal_path=journal_path,
    )


def _drive_inline(dispatcher: _Dispatcher, pending: list[dict[str, Any]]) -> None:
    while pending:
        unit = dispatcher.pick(pending)
        while True:
            dispatcher.claim(unit, "inline")
            try:
                result = execute_unit(dispatcher.header, unit)
            except Exception as error:
                if dispatcher.fail(unit, error):
                    continue
                raise CampaignError(
                    f"unit {unit['id']} failed after "
                    f"{dispatcher.attempts[unit['id']]} attempt(s): {error}"
                ) from error
            dispatcher.commit(unit, result)
            break


def _drive_pool(dispatcher: _Dispatcher, pending: list[dict[str, Any]]) -> None:
    from repro.service.pool import InFlight, get_pool

    pool = get_pool(dispatcher.config.jobs)
    if pool is None:  # host cannot spawn processes; the guarantee holds
        _drive_inline(dispatcher, pending)
        return
    jobs = max(1, dispatcher.config.jobs)
    pending = list(pending)
    # Leaving the block (a unit out of retries) discards the replies of the
    # units still in flight.
    with InFlight(pool) as in_flight:
        while pending or in_flight:
            while pending and len(in_flight) < jobs:
                unit = dispatcher.pick(pending)
                if not in_flight.start(
                    execute_unit, dispatcher.header, [unit], tag=unit
                ):
                    pending.insert(0, unit)  # every worker is busy
                    break
                dispatcher.claim(unit, "pool")
            for unit, error, results in in_flight.collect():
                if error is None:
                    dispatcher.commit(unit, results[0])
                elif dispatcher.fail(unit, error):
                    pending.insert(0, unit)
                else:
                    raise CampaignError(
                        f"unit {unit['id']} failed after "
                        f"{dispatcher.attempts[unit['id']]} attempt(s): {error}"
                    ) from error


def _drive_endpoints(dispatcher: _Dispatcher, pending: list[dict[str, Any]]) -> None:
    """Remote dispatch: one :class:`ServiceClient` per endpoint, one unit
    in flight per client (the service multiplexes many clients over its
    own warm pool, so per-connection pipelining buys nothing).  Each unit
    runs on its own thread; finished units come back through one queue."""
    from repro.service.client import ServiceClient

    endpoints = list(dispatcher.config.endpoints)
    clients = [ServiceClient(endpoint) for endpoint in endpoints]
    spec_dict, options = dispatcher.header
    finished: queue.SimpleQueue = queue.SimpleQueue()
    threads: list[threading.Thread] = []

    def run(slot: int, unit: dict[str, Any]) -> None:
        try:
            result = clients[slot].run_unit(spec_dict, unit, options=None)
        except Exception as error:
            finished.put((slot, unit, error, None))
        else:
            finished.put((slot, unit, None, result))

    try:
        idle = list(range(len(clients)))
        pending = list(pending)
        while pending or len(idle) < len(clients):
            while pending and idle:
                slot = idle.pop()
                unit = dispatcher.pick(pending)
                dispatcher.claim(unit, endpoints[slot])
                thread = threading.Thread(target=run, args=(slot, unit), daemon=True)
                thread.start()
                threads.append(thread)
            slot, unit, error, result = finished.get()
            idle.append(slot)
            if error is None:
                dispatcher.commit(unit, result)
            elif dispatcher.fail(unit, error):
                pending.insert(0, unit)
            else:
                raise CampaignError(
                    f"unit {unit['id']} failed after "
                    f"{dispatcher.attempts[unit['id']]} attempt(s): "
                    f"{error}"
                ) from error
    finally:
        for thread in threads:
            thread.join()
        for client in clients:
            try:
                client.close()
            except Exception:
                pass


__all__ = [
    "CampaignError",
    "CampaignOutcome",
    "ScheduleConfig",
    "backoff_delay",
    "campaign_status",
    "merge_campaign_journals",
    "resume_campaign",
    "run_campaign_spec",
]
