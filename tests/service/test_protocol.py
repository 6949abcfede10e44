"""Protocol layer: frame round-trips, validation, options serialization."""

import json

import pytest

from repro.cfront import ctypes as ct
from repro.core.config import (
    DEFAULT_OPTIONS,
    ENGINES,
    EVALUATION_ORDERS,
    CheckerOptions,
)
from repro.service import protocol
from repro.service.protocol import ProtocolError


def _round_trip(frame):
    return protocol.decode_frame(protocol.encode_frame(frame))


def test_encode_decode_round_trip():
    frame = {"op": "ping", "nested": {"a": [1, 2, 3]}, "text": "café"}
    assert _round_trip(frame) == frame
    assert protocol.encode_frame(frame).endswith(b"\n")


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        protocol.decode_frame(b"not json at all")
    with pytest.raises(ProtocolError, match="must be an object"):
        protocol.decode_frame(b"[1, 2, 3]")
    with pytest.raises(ProtocolError, match="not UTF-8"):
        protocol.decode_frame(b"\xff\xfe{}")


# -- request round-trips, one per job kind ----------------------------------


def test_check_request_round_trip():
    frame = protocol.check_request(
        "job-1",
        ["int main(void){return 0;}", ("a.c", "int main(void){return 1;}")],
        search=True,
        budget="paths=32",
    )
    request = protocol.validate_request(_round_trip(frame))
    assert request["op"] == "check"
    assert request["id"] == "job-1"
    assert request["sources"] == [
        ("<input:0>", "int main(void){return 0;}"),
        ("a.c", "int main(void){return 1;}"),
    ]
    assert request["search"] is True
    assert request["budget"].max_paths == 32
    assert request["options"] == DEFAULT_OPTIONS


def test_fuzz_request_round_trip():
    frame = protocol.fuzz_request("job-2", seed=7, count=50, inject="memory")
    request = protocol.validate_request(_round_trip(frame))
    assert request["op"] == "fuzz"
    assert request["seed"] == 7
    assert request["count"] == 50
    assert request["inject"] == "memory"
    none_frame = protocol.fuzz_request("job-3", inject=None)
    assert protocol.validate_request(_round_trip(none_frame))["inject"] is None


def test_search_request_round_trip():
    frame = protocol.search_request(
        "job-4",
        "int main(void){return 0;}",
        filename="prog.c",
        strategy="random",
        seed=99,
        budget="paths=8,seconds=2",
    )
    request = protocol.validate_request(_round_trip(frame))
    assert request["op"] == "search"
    assert request["filename"] == "prog.c"
    assert request["strategy"] == "random"
    assert request["seed"] == 99
    assert request["budget"].max_paths == 8
    assert request["budget"].max_seconds == 2.0


# -- options over the wire ---------------------------------------------------


def test_options_round_trip_defaults_are_compact():
    assert protocol.options_to_dict(DEFAULT_OPTIONS) == {"profile": "lp64"}
    assert protocol.options_from_dict(None) == DEFAULT_OPTIONS


def test_options_round_trip_non_default_fields():
    options = CheckerOptions(
        profile=ct.PROFILES["ilp32"],
        check_sequencing=False,
        max_steps=1234,
        evaluation_order="right-to-left",
    )
    data = protocol.options_to_dict(options)
    assert data["profile"] == "ilp32"
    assert data["check_sequencing"] is False
    assert protocol.options_from_dict(data) == options


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("order", EVALUATION_ORDERS)
def test_options_round_trip_every_engine_and_order(engine, order):
    options = CheckerOptions(engine=engine, evaluation_order=order)
    wire = json.loads(json.dumps(protocol.options_to_dict(options)))
    assert protocol.options_from_dict(wire) == options


def test_enable_lowering_still_loads():
    options = protocol.options_from_dict({"enable_lowering": False})
    assert options == CheckerOptions(enable_lowering=False)
    assert options.effective_engine() == "walker"
    assert protocol.options_to_dict(options) == {
        "profile": "lp64",
        "enable_lowering": False,
    }


@pytest.mark.parametrize(
    "data, match",
    [
        ({"profile": "pdp11"}, "unknown profile"),
        ({"frobnicate": True}, "unknown option field"),
        ({"check_memory": "yes"}, "must be a boolean"),
        ({"max_steps": True}, "must be an integer"),
        ({"evaluation_order": 3}, "must be a string"),
        ({"evaluation_order": "bogus"}, "unknown evaluation order"),
        ({"evaluation_order": "search"}, "unknown evaluation order"),
        ({"engine": "bogus"}, "unknown engine"),
        ("not-a-dict", "must be a JSON object"),
    ],
)
def test_options_validation_errors(data, match):
    with pytest.raises(ProtocolError, match=match) as caught:
        protocol.options_from_dict(data)
    assert caught.value.code == protocol.ERROR_BAD_REQUEST


def test_rejected_options_make_the_request_a_bad_request():
    frame = {
        "op": "check",
        "id": "j",
        "sources": ["int main(void){ return 0; }"],
        "options": {"evaluation_order": "bogus"},
    }
    with pytest.raises(ProtocolError, match="unknown evaluation order") as caught:
        protocol.validate_request(frame)
    assert caught.value.code == protocol.ERROR_BAD_REQUEST


# -- request validation errors ----------------------------------------------


@pytest.mark.parametrize(
    "frame, match",
    [
        ({}, "needs a string 'op'"),
        ({"op": 7}, "needs a string 'op'"),
        ({"op": "frobnicate"}, "unknown op"),
        ({"op": "check", "sources": ["x"]}, "needs 'id'"),
        ({"op": "check", "id": "j", "sources": []}, "non-empty list"),
        ({"op": "check", "id": "j", "sources": [42]}, "sources\\[0\\]"),
        ({"op": "check", "id": "j", "sources": ["x"], "search": "y"}, "boolean"),
        ({"op": "fuzz", "id": "j", "count": -1}, "non-negative integer"),
        ({"op": "fuzz", "id": "j", "seed": "zero"}, "non-negative integer"),
        ({"op": "search", "id": "j"}, "needs 'source'"),
        ({"op": "search", "id": "j", "source": "x", "strategy": "omniscient"},
         "unknown search strategy"),
        ({"op": "check", "id": "j", "sources": ["x"], "budget": "paths=lots"},
         "bad budget value"),
        ({"op": "cancel"}, "needs 'id'"),
    ],
)
def test_validate_request_rejects_bad_frames(frame, match):
    with pytest.raises(ProtocolError, match=match):
        protocol.validate_request(frame)


def test_bad_request_errors_carry_the_right_code():
    try:
        protocol.validate_request({"op": "nope"})
    except ProtocolError as error:
        assert error.code == protocol.ERROR_BAD_REQUEST
    try:
        protocol.validate_request({})
    except ProtocolError as error:
        assert error.code == protocol.ERROR_PROTOCOL


# -- response frames ---------------------------------------------------------


def test_response_frame_shapes():
    assert protocol.done_frame("j", "ok")["status"] == "ok"
    assert "elapsed_seconds" not in protocol.done_frame("j", "ok")
    assert protocol.done_frame("j", "ok", elapsed_seconds=1.5)["elapsed_seconds"] == 1.5
    error = protocol.error_frame("boom", code="internal", job="j")
    assert (error["code"], error["job"]) == ("internal", "j")
    assert "job" not in protocol.error_frame("boom")
    progress = protocol.progress_frame("j", 3, 9)
    assert (progress["done"], progress["total"]) == (3, 9)
    hello = protocol.hello_frame(version="1.0", pool={"workers": 2})
    assert hello["protocol"] == protocol.PROTOCOL


# -- report frames spliced from reports encoded in the worker -----------------


@pytest.fixture(scope="module")
def suite_reports():
    from repro.api.batch import check_header, check_pair
    from repro.suites import generate_juliet_suite, generate_undefinedness_suite

    cases = list(generate_undefinedness_suite().cases)
    cases += list(generate_juliet_suite().cases)
    header = check_header(DEFAULT_OPTIONS, False, True, None)
    return [check_pair(header, (case.name, case.source)) for case in cases]


def test_spliced_report_frames_equal_encoded_frames(suite_reports):
    assert len(suite_reports) == 278
    for index, report in enumerate(suite_reports):
        data = report.to_dict()
        encoded = protocol.encode_json(data)
        for job in ("job-1", 'j"\\é\u2028'):
            expected = protocol.encode_frame(protocol.report_frame(job, index, data))
            assert protocol.encode_report_frame(job, index, encoded) == expected, (
                report.filename,
                job,
            )
