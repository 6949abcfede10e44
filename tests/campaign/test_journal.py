"""Journal durability: append, crash-truncated recovery, replay, merge."""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.journal import (
    JournalError,
    JournalWriter,
    campaign_record,
    claim_record,
    done_record,
    failed_record,
    finding_record,
    merge_journals,
    read_journal,
    recover_journal,
    replay,
    unit_record,
    write_journal,
)
from repro.campaign.workunit import (
    CampaignSpec,
    campaign_units,
    canonical_json,
    unit_result_digest,
)

SPEC = CampaignSpec(seed=5, count=6, unit_size=2)
UNITS = campaign_units(SPEC)


def _result(unit, marker):
    """A fabricated (but digest-consistent) unit result; no execution."""
    records = [{"index": unit.params["lo"], "marker": marker}]
    return {
        "schema": "repro.campaign.result/1",
        "unit": unit.unit_id,
        "index": unit.index,
        "kind": unit.kind,
        "cases": unit.cases,
        "digest": unit_result_digest(records),
        "summary": {"clean": {"cases": unit.cases, "correct": unit.cases}},
        "findings": [],
        "records": records,
    }


def _full_records():
    records = [campaign_record(SPEC, len(UNITS))]
    records.extend(unit_record(unit) for unit in UNITS)
    for unit in UNITS:
        records.append(claim_record(unit.unit_id, 1, "inline"))
        records.append(done_record(unit.unit_id, _result(unit, "x")))
    records.append(
        finding_record(
            UNITS[0].unit_id,
            {"signature": "sig:a", "case": 0, "family": "clean"},
        )
    )
    records.append(failed_record(UNITS[1].unit_id, 1, "ValueError: boom"))
    return records


class TestWriterAndReader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = _full_records()
        with JournalWriter(path, fsync_every=2) as writer:
            for record in records:
                writer.append(record)
        assert read_journal(path) == records

    def test_unknown_record_type_is_refused(self, tmp_path):
        with JournalWriter(tmp_path / "j.jsonl") as writer:
            with pytest.raises(JournalError, match="unknown record type"):
                writer.append({"t": "telemetry"})

    def test_appends_survive_without_close(self, tmp_path):
        # A SIGKILL after append() returns must not lose the record: the
        # line is flushed to the kernel synchronously.  Simulate by reading
        # through a second handle before close(); the close only releases
        # the file.
        path = tmp_path / "j.jsonl"
        writer = JournalWriter(path)
        writer.append(campaign_record(SPEC, len(UNITS)))
        assert len(read_journal(path)) == 1
        writer.close()


class TestRecovery:
    def test_partial_tail_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = _full_records()
        write_journal(path, records)
        with open(path, "ab") as handle:
            handle.write(b'{"t":"done","unit":"wu-12')  # killed mid-write
        recovered, dropped = recover_journal(path)
        assert recovered == records
        assert dropped == len(b'{"t":"done","unit":"wu-12')
        # The file is clean again: a strict read succeeds and appends work.
        assert read_journal(path) == records
        with JournalWriter(path) as writer:
            writer.append(claim_record(UNITS[0].unit_id, 2, "inline"))
        assert len(read_journal(path)) == len(records) + 1

    def test_midfile_corruption_is_not_recovered(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = _full_records()
        lines = [canonical_json(r) + "\n" for r in records]
        lines[2] = "###garbage###\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="corrupt record"):
            recover_journal(path)

    def test_recover_without_truncate_leaves_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, _full_records())
        with open(path, "ab") as handle:
            handle.write(b"partial")
        size = path.stat().st_size
        recover_journal(path, truncate=False)
        assert path.stat().st_size == size


# The crash-safety property the resume contract rests on: truncating the
# journal at ANY byte offset recovers a strict record prefix, and that
# prefix always replays into a valid state.
_RAW = b"".join(
    (canonical_json(record) + "\n").encode("utf-8") for record in _full_records()
)
_FULL = _full_records()


@settings(max_examples=80, deadline=None)
@given(offset=st.integers(min_value=0, max_value=len(_RAW)))
def test_truncation_at_any_offset_recovers_a_valid_prefix(offset):
    fd, name = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_RAW[:offset])
        records, dropped = recover_journal(name)
        # Strict prefix of the original record stream...
        assert records == _FULL[: len(records)]
        # ...accounting for every byte: complete lines kept, tail dropped.
        kept = sum(
            len((canonical_json(record) + "\n").encode("utf-8"))
            for record in records
        )
        assert kept + dropped == offset
        # ...and the prefix replays without error into consistent state.
        state = replay(records)
        assert state.done_units <= len(state.units)
        assert set(state.digests) <= set(state.units)
    finally:
        os.unlink(name)


class TestReplay:
    def test_full_replay_state(self):
        state = replay(_full_records())
        assert state.spec == SPEC
        assert state.spec_digest == SPEC.digest()
        assert state.units_total == len(UNITS)
        assert state.done_units == len(UNITS)
        assert state.complete
        assert state.pending == []
        assert list(state.findings) == ["sig:a"]
        assert state.failures[UNITS[1].unit_id] == ["ValueError: boom"]
        assert state.duplicate_done == 0

    def test_duplicate_done_with_same_digest_is_counted(self):
        records = _full_records()
        records.append(done_record(UNITS[0].unit_id, _result(UNITS[0], "x")))
        state = replay(records)
        assert state.duplicate_done == 1

    def test_conflicting_done_digest_is_a_determinism_violation(self):
        records = _full_records()
        records.append(done_record(UNITS[0].unit_id, _result(UNITS[0], "y")))
        with pytest.raises(JournalError, match="determinism violation"):
            replay(records)

    def test_records_before_the_header_are_rejected(self):
        with pytest.raises(JournalError, match="before the campaign header"):
            replay([unit_record(UNITS[0])])

    def test_unit_of_another_campaign_is_rejected(self):
        other = campaign_units(CampaignSpec(seed=6, count=6, unit_size=2))[0]
        records = [campaign_record(SPEC, len(UNITS)), unit_record(other)]
        with pytest.raises(JournalError, match="different campaign"):
            replay(records)

    def test_done_for_unknown_unit_is_rejected(self):
        records = [
            campaign_record(SPEC, len(UNITS)),
            done_record(UNITS[0].unit_id, _result(UNITS[0], "x")),
        ]
        with pytest.raises(JournalError, match="unknown unit"):
            replay(records)


class TestMerge:
    def _half(self, tmp_path, name, indices, marker="x"):
        records = [campaign_record(SPEC, len(UNITS))]
        records.extend(unit_record(unit) for unit in UNITS)
        for index in indices:
            unit = UNITS[index]
            records.append(claim_record(unit.unit_id, 1, "shard"))
            records.append(done_record(unit.unit_id, _result(unit, marker)))
        path = tmp_path / name
        write_journal(path, records)
        return path

    def test_merge_is_input_order_independent(self, tmp_path):
        a = self._half(tmp_path, "a.jsonl", [0, 1])
        b = self._half(tmp_path, "b.jsonl", [2])
        assert merge_journals([a, b]) == merge_journals([b, a])
        state = replay(merge_journals([a, b]))
        assert state.complete

    def test_overlapping_agreeing_units_merge(self, tmp_path):
        a = self._half(tmp_path, "a.jsonl", [0, 1])
        b = self._half(tmp_path, "b.jsonl", [1, 2])
        state = replay(merge_journals([a, b]))
        assert state.done_units == 3

    def test_conflicting_results_refuse_to_merge(self, tmp_path):
        a = self._half(tmp_path, "a.jsonl", [0])
        b = self._half(tmp_path, "b.jsonl", [0], marker="y")
        with pytest.raises(JournalError, match="determinism violation"):
            merge_journals([a, b])

    def test_different_campaigns_refuse_to_merge(self, tmp_path):
        a = self._half(tmp_path, "a.jsonl", [0])
        other_spec = CampaignSpec(seed=99, count=6, unit_size=2)
        other = tmp_path / "other.jsonl"
        write_journal(
            other,
            [campaign_record(other_spec, 3)]
            + [unit_record(u) for u in campaign_units(other_spec)],
        )
        with pytest.raises(JournalError, match="refusing to merge"):
            merge_journals([a, other])

    def test_merge_needs_input(self):
        with pytest.raises(JournalError, match="at least one"):
            merge_journals([])
