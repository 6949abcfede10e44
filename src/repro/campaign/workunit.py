"""Work units: serializable, content-addressed slices of a campaign.

A :class:`CampaignSpec` describes a whole deterministic workload — a fuzz
campaign (seed + count + injection mode), a suite sweep (every case of the
ubsuite or Juliet suite), or an evaluation-order search (one program's root
shards).  :func:`campaign_units` partitions a spec into :class:`WorkUnit`
slices; :func:`execute_unit` runs one slice anywhere — the calling process,
a warm-pool worker, or a ``kcc-check serve`` worker on another machine —
and returns a plain-dict result whose bytes depend only on the unit's
identity (PR 5's per-item seed derivation), never on placement or timing.

Identity is content-addressed: ``WorkUnit.unit_id`` is a SHA-256 digest of
the canonical JSON of ``(spec digest, kind, index, params)``, so the same
slice of the same campaign has the same id on every machine, and a journal
line naming a unit id is unambiguous across shards.  Results carry their
own digest (:func:`unit_result_digest`) over the deterministic payload, so
replays and merges can verify that two executions of one unit agreed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.service.protocol import options_from_dict

#: Schema tags, embedded so future layout changes stay readable.
SPEC_SCHEMA = "repro.campaign.spec/1"
UNIT_SCHEMA = "repro.campaign.unit/1"
RESULT_SCHEMA = "repro.campaign.result/1"

#: Cases (or search scripts) per work unit when the spec does not say.
DEFAULT_UNIT_SIZE = 25

#: The campaign kinds :func:`campaign_units` knows how to partition.
KINDS = ("fuzz", "suite", "search")

#: ``inject="rotate"`` assigns each fuzz unit one injection family
#: round-robin, which is what gives the scheduler's coverage bias distinct
#: families to weigh.
ROTATE = "rotate"


def canonical_json(payload: Any) -> str:
    """The one canonical JSON encoding digests and comparisons use."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# CampaignSpec: everything a campaign depends on, JSON-safe and digestible
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """The full description of one campaign (JSON-safe, digestible).

    ``options`` travels in the wire form of
    :func:`repro.service.protocol.options_to_dict`, so a spec serialized on
    one machine reconstructs the same :class:`CheckerOptions` on another.
    """

    kind: str = "fuzz"
    seed: int = 0
    #: fuzz: programs to generate; suite: case cap (0 means every case).
    count: int = 200
    unit_size: int = DEFAULT_UNIT_SIZE
    #: fuzz injection mode; :data:`ROTATE` assigns one family per unit.
    inject: Optional[str] = "mixed"
    #: ``GeneratorConfig.to_dict()`` overrides (empty: defaults).
    generator: dict = field(default_factory=dict)
    #: ``OracleConfig.to_dict()`` overrides (empty: defaults).
    oracles: dict = field(default_factory=dict)
    #: Checker options in wire form (empty: :data:`DEFAULT_OPTIONS`).
    options: dict = field(default_factory=dict)
    #: suite kind: which suite to sweep.
    suite: str = "ubsuite"
    #: search kind: the program whose evaluation orders are explored.
    source: Optional[str] = None
    filename: str = "<input>"
    budget: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown campaign kind {self.kind!r}; expected one of {KINDS}"
            )
        # Canonicalize the options wire form so that semantically equal
        # specs digest equally: ``options_to_dict`` already omits non-default
        # fields, but always emits ``profile`` — drop it when it names the
        # default, so ``{}`` and ``{"profile": "lp64"}`` are the same spec.
        options = dict(self.options)
        if options.get("profile") == DEFAULT_OPTIONS.profile.name:
            del options["profile"]
        object.__setattr__(self, "options", options)
        if self.count < 0:
            raise ValueError("campaign count must be non-negative")
        if self.unit_size < 1:
            raise ValueError("campaign unit_size must be >= 1")
        if self.kind == "search" and not self.source:
            raise ValueError("search campaigns need 'source' (the program text)")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SPEC_SCHEMA,
            "kind": self.kind,
            "seed": self.seed,
            "count": self.count,
            "unit_size": self.unit_size,
            "inject": self.inject,
            "generator": dict(self.generator),
            "oracles": dict(self.oracles),
            "options": dict(self.options),
            "suite": self.suite,
            "source": self.source,
            "filename": self.filename,
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise ValueError("campaign spec must be a JSON object")
        known = {key for key in cls().to_dict() if key != "schema"}
        unknown = set(data) - known - {"schema"}
        if unknown:
            raise ValueError(f"unknown campaign spec fields: {sorted(unknown)}")
        return cls(**{key: data[key] for key in known if key in data})

    def digest(self) -> str:
        """Content digest of the spec; the campaign's identity everywhere."""
        return _digest(self.to_dict())

    def checker_options(self) -> CheckerOptions:
        return options_from_dict(self.options or None)

    def units_estimate(self) -> int:
        """How many units :func:`campaign_units` will produce (search: >=1)."""
        if self.kind == "search":
            return 1
        total = self.count if self.count else self._suite_size()
        return max(1, math.ceil(total / self.unit_size))

    def _suite_size(self) -> int:
        return len(_suite_cases(self))


# ---------------------------------------------------------------------------
# WorkUnit: one content-addressed slice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkUnit:
    """One relocatable slice of a campaign."""

    spec_digest: str
    kind: str
    index: int
    #: Kind-specific slice parameters (JSON-safe): fuzz/suite carry
    #: ``{"lo", "hi"}`` case spans (fuzz optionally ``"inject"``); search
    #: carries ``{"scripts": [...]}`` — the sibling order scripts to run.
    params: dict = field(default_factory=dict)

    @property
    def unit_id(self) -> str:
        payload = {
            "spec": self.spec_digest,
            "kind": self.kind,
            "index": self.index,
            "params": self.params,
        }
        return "wu-" + _digest(payload)[:16]

    @property
    def cases(self) -> int:
        if "lo" in self.params:
            return int(self.params["hi"]) - int(self.params["lo"])
        return len(self.params.get("scripts", ())) or 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": UNIT_SCHEMA,
            "id": self.unit_id,
            "spec": self.spec_digest,
            "kind": self.kind,
            "index": self.index,
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WorkUnit":
        if not isinstance(data, dict):
            raise ValueError("work unit must be a JSON object")
        try:
            unit = cls(
                spec_digest=data["spec"],
                kind=data["kind"],
                index=int(data["index"]),
                params=dict(data["params"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed work unit: {error}") from None
        claimed = data.get("id")
        if claimed is not None and claimed != unit.unit_id:
            raise ValueError(
                f"work unit id {claimed!r} does not match its content "
                f"({unit.unit_id}); the unit was altered in transit"
            )
        return unit


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def _spans(total: int, size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _fuzz_units(spec: CampaignSpec) -> list[WorkUnit]:
    from repro.fuzz.generator import injection_families

    digest = spec.digest()
    families = injection_families()
    units = []
    for index, (lo, hi) in enumerate(_spans(spec.count, spec.unit_size)):
        params: dict[str, Any] = {"lo": lo, "hi": hi}
        if spec.inject == ROTATE:
            params["inject"] = families[index % len(families)]
        units.append(WorkUnit(digest, "fuzz", index, params))
    return units


def _suite_cases(spec: CampaignSpec) -> list:
    if spec.suite == "juliet":
        from repro.suites.juliet import generate_juliet_suite

        cases = generate_juliet_suite().cases
    elif spec.suite == "ubsuite":
        from repro.suites.ubsuite import generate_undefinedness_suite

        cases = generate_undefinedness_suite().cases
    else:
        raise ValueError(f"unknown suite {spec.suite!r}")
    if spec.count:
        cases = cases[: spec.count]
    return cases


def _suite_units(spec: CampaignSpec) -> list[WorkUnit]:
    digest = spec.digest()
    total = len(_suite_cases(spec))
    return [
        WorkUnit(digest, "suite", index, {"lo": lo, "hi": hi})
        for index, (lo, hi) in enumerate(_spans(total, spec.unit_size))
    ]


def _search_units(spec: CampaignSpec) -> list[WorkUnit]:
    """Root shards as units: the root order plus round-robin sibling shards.

    Partitioning a search campaign runs the root evaluation order once (in
    this process) to discover the decision arities — exactly what the PR-4
    parallel driver does — then every sibling script becomes schedulable
    work.  Unit 0 re-runs the root script so the merged exploration covers
    the identical path set the serial engine reports.
    """
    from repro.core.kcc import search_root_expansion
    from repro.kframework.engine import shard_scripts

    digest = spec.digest()
    root_script, scripts = search_root_expansion(
        spec.source,
        filename=spec.filename,
        options=spec.checker_options(),
    )
    shards = shard_scripts(scripts, math.ceil(len(scripts) / spec.unit_size))
    all_shards = [[root_script]] + shards
    return [
        WorkUnit(digest, "search", index, {"scripts": [list(s) for s in shard]})
        for index, shard in enumerate(all_shards)
    ]


def campaign_units(spec: CampaignSpec) -> list[WorkUnit]:
    """Partition a campaign spec into its work units (deterministic)."""
    if spec.kind == "fuzz":
        return _fuzz_units(spec)
    if spec.kind == "suite":
        return _suite_units(spec)
    return _search_units(spec)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def unit_result_digest(records: list[dict[str, Any]]) -> str:
    """The result digest journals pin: canonical JSON of the records."""
    return _digest(records)


def fuzz_campaign_config(spec: CampaignSpec, unit: Optional[WorkUnit] = None):
    """The :class:`repro.fuzz.campaign.CampaignConfig` a fuzz unit runs under."""
    from repro.fuzz.campaign import CampaignConfig
    from repro.fuzz.generator import GeneratorConfig
    from repro.fuzz.oracles import OracleConfig

    inject = spec.inject
    if unit is not None and "inject" in unit.params:
        inject = unit.params["inject"]
    elif inject == ROTATE:
        inject = "mixed"
    return CampaignConfig(
        seed=spec.seed,
        count=spec.count,
        inject=inject,
        generator=GeneratorConfig.from_dict(spec.generator),
        oracles=OracleConfig.from_dict(spec.oracles),
    )


def _fuzz_records(
    spec: CampaignSpec, unit: WorkUnit, options: CheckerOptions
) -> list[dict[str, Any]]:
    from repro.fuzz.campaign import examine_case, worker_config

    config = fuzz_campaign_config(spec, unit)
    header = (worker_config(config), options)
    lo, hi = int(unit.params["lo"]), int(unit.params["hi"])
    return [examine_case(header, index).to_dict() for index in range(lo, hi)]


def _suite_records(
    spec: CampaignSpec, unit: WorkUnit, options: CheckerOptions
) -> list[dict[str, Any]]:
    from repro.api.session import compile_shared
    from repro.core.kcc import KccTool

    cases = _suite_cases(spec)
    tool = KccTool(options)
    records = []
    lo, hi = int(unit.params["lo"]), int(unit.params["hi"])
    for index in range(lo, hi):
        case = cases[index]
        compiled = compile_shared(case.source, filename=case.name, options=options)
        report = tool.run_unit(compiled)
        flagged = report.flagged
        record = {
            "index": index,
            "name": case.name,
            "family": case.category or "suite",
            "injected": case.behavior if case.is_bad else None,
            "verdict": report.outcome.kind.name.lower(),
            "detected_kind": None,
            "ok": flagged == case.is_bad,
        }
        if not record["ok"]:
            record["failures"] = [
                {
                    "oracle": "suite-expectation",
                    "signature": f"suite:{case.name}:{record['verdict']}",
                    "detail": (
                        f"expected {'bad' if case.is_bad else 'good'}, "
                        f"verdict {record['verdict']}"
                    ),
                }
            ]
        records.append(record)
    return records


def _search_records(
    spec: CampaignSpec, unit: WorkUnit, options: CheckerOptions
) -> list[dict[str, Any]]:
    from repro.core.kcc import run_search_shard
    from repro.kframework.search import SearchBudget, SearchOptions

    budget = SearchBudget.parse(spec.budget) if spec.budget else SearchBudget()
    search_options = SearchOptions(budget=budget, checkpoint="replay")
    header = (spec.source, spec.filename, options, None, "", search_options)
    scripts = [tuple(script) for script in unit.params["scripts"]]
    result = run_search_shard(header, scripts)
    undefined = sorted(
        (list(path.script), path.description) for path in result.undefined_paths
    )
    record = {
        "index": unit.index,
        "name": f"shard-{unit.index}",
        "family": "search",
        "injected": "order" if undefined else None,
        "verdict": "undefined" if undefined else "defined",
        "detected_kind": None,
        "scripts": len(scripts),
        "explored": result.explored,
        "undefined_orders": undefined,
        "ok": True,
    }
    if undefined:
        record["failures"] = [
            {
                "oracle": "order-search",
                "signature": f"search:{description}",
                "detail": f"order {script} is undefined: {description}",
            }
            for script, description in undefined
        ]
    return [record]


def _summarize(records: list[dict[str, Any]]) -> dict[str, dict[str, int]]:
    """The per-family table fragment of one unit (mergeable, deterministic).

    Mirrors :meth:`repro.fuzz.campaign.CampaignResult.family_table` exactly,
    so an aggregate over unit summaries is byte-identical to the table a
    monolithic campaign run computes from its records.
    """
    table: dict[str, dict[str, int]] = {}
    for record in records:
        family = record.get("family") or (
            "terminal" if record.get("injected") else "clean"
        )
        row = table.setdefault(family, {"cases": 0, "correct": 0})
        row["cases"] += 1
        if record.get("injected"):
            correct = record.get("verdict") != "defined"
        else:
            correct = record.get("verdict") == "defined"
        if correct and record.get("ok", True):
            row["correct"] += 1
    return table


def _findings(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Mismatch records condensed into dedupable findings."""
    findings = []
    for record in records:
        for failure in record.get("failures", ()):
            findings.append(
                {
                    "signature": failure.get("signature", "unknown"),
                    "case": record.get("index", 0),
                    "family": record.get("family"),
                    "oracle": failure.get("oracle"),
                    "detail": failure.get("detail"),
                }
            )
    return findings


def execute_unit(header: tuple, unit_dict: dict[str, Any]) -> dict[str, Any]:
    """Run one work unit; module-level and picklable (pool/staged worker).

    ``header`` is ``(spec_dict, options_wire_dict_or_None)`` — shipped once
    per chunk by the warm pool's staged submission, and exactly what the
    ``unit`` service op carries over the wire.  The result is a plain dict
    whose ``digest`` covers only deterministic payload (records), never
    timing, so any two executions of one unit can be checked for agreement.
    """
    import time

    spec_dict, options_dict = header
    spec = CampaignSpec.from_dict(spec_dict)
    options = options_from_dict(options_dict) if options_dict else DEFAULT_OPTIONS
    unit = WorkUnit.from_dict(unit_dict)
    if unit.spec_digest != spec.digest():
        raise ValueError(
            f"unit {unit.unit_id} belongs to spec {unit.spec_digest[:12]}..., "
            f"not {spec.digest()[:12]}..."
        )
    start = time.perf_counter()
    if unit.kind == "fuzz":
        records = _fuzz_records(spec, unit, options)
    elif unit.kind == "suite":
        records = _suite_records(spec, unit, options)
    elif unit.kind == "search":
        records = _search_records(spec, unit, options)
    else:
        raise ValueError(f"unknown unit kind {unit.kind!r}")
    return {
        "schema": RESULT_SCHEMA,
        "unit": unit.unit_id,
        "index": unit.index,
        "kind": unit.kind,
        "cases": len(records),
        "digest": unit_result_digest(records),
        "summary": _summarize(records),
        "findings": _findings(records),
        "records": records,
        "elapsed": time.perf_counter() - start,
    }


def strip_result(result: dict[str, Any]) -> dict[str, Any]:
    """A result without its per-case records (summary/findings retained).

    Campaigns at the millions-of-programs scale journal stripped results
    (``store_records=False`` in the scheduler) — the aggregate only ever
    reads summaries and findings; full records exist for byte-exact
    :class:`~repro.fuzz.campaign.CampaignResult` reconstruction.
    """
    slim = dict(result)
    slim.pop("records", None)
    return slim


__all__ = [
    "DEFAULT_UNIT_SIZE",
    "KINDS",
    "RESULT_SCHEMA",
    "ROTATE",
    "SPEC_SCHEMA",
    "UNIT_SCHEMA",
    "CampaignSpec",
    "WorkUnit",
    "campaign_units",
    "canonical_json",
    "execute_unit",
    "fuzz_campaign_config",
    "strip_result",
    "unit_result_digest",
]
