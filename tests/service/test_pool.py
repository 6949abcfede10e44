"""Warm worker pool: identity with serial, persistence, failure recovery."""

import pickle
import tempfile
import time

import pytest

import repro.service.pool as pool_module
from repro.api.batch import check_header
from repro.cfront import ctypes as ct
from repro.core.config import DEFAULT_OPTIONS, CheckerOptions
from repro.service.pool import (
    get_pool,
    pool_stats,
    resolve_jobs,
    run_staged,
    shutdown_pool,
)


def _tag(header, item):
    return f"{header}:{item}"


def _boom(header, item):
    raise ValueError(f"task {item} exploded")


def _length(header, item):
    return len(header) + len(item)


def test_resolve_jobs_clamps_and_defaults():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(None) >= 1


def test_run_staged_preserves_order_and_ships_header_once():
    items = [str(index) for index in range(17)]
    serial = run_staged(_tag, "hdr", items, jobs=1)
    parallel = run_staged(_tag, "hdr", items, jobs=3)
    assert parallel == serial == [f"hdr:{item}" for item in items]


def test_pool_is_persistent_across_batches():
    pool = get_pool(2)
    if pool is None:
        pytest.skip("host cannot spawn worker processes")
    before = pool.batches_run
    run_staged(_tag, "a", ["1", "2", "3", "4"], jobs=2, chunksize=2)
    run_staged(_tag, "b", ["1", "2", "3", "4"], jobs=2, chunksize=2)
    assert get_pool(2) is pool
    assert pool.batches_run >= before + 2  # both batches ran on this pool
    stats = pool_stats()
    assert stats["alive"] and stats["workers"] >= 2


def test_growing_never_shrinking():
    small = get_pool(1)
    if small is None:
        pytest.skip("host cannot spawn worker processes")
    grown = get_pool(3)
    assert grown is not None and grown.workers >= 3
    # Asking for fewer workers keeps the grown pool.
    assert get_pool(1) is grown


def test_task_error_propagates_and_pool_survives():
    pool = get_pool(2)
    if pool is None:
        pytest.skip("host cannot spawn worker processes")
    with pytest.raises(ValueError, match="exploded"):
        run_staged(_boom, None, list(range(8)), jobs=2, chunksize=2)
    assert pool.alive
    assert run_staged(_tag, "ok", ["x", "y"], jobs=2) == ["ok:x", "ok:y"]


#: About 1.5 MiB of pickled items.
LARGE_ITEMS = [("x" * 1024) + str(index) for index in range(1500)]


def test_a_large_batch_equals_serial():
    serial = run_staged(_length, "hh", LARGE_ITEMS, jobs=1)
    parallel = run_staged(_length, "hh", LARGE_ITEMS, jobs=2)
    assert parallel == serial


def _nap(header, item):
    time.sleep(0.01)
    return item


def test_a_chunk_is_pickled_once_however_long_it_waits_for_a_worker(monkeypatch):
    pool = get_pool(2)
    if pool is None:
        pytest.skip("host cannot spawn worker processes")
    pickled = []
    dumps = pool_module._dumps
    monkeypatch.setattr(
        pool_module, "_dumps", lambda value: pickled.append(value) or dumps(value)
    )
    items = list(range(40))
    assert pool.run_staged(_nap, None, items, chunksize=2) == items
    assert len(pickled) == 20


def _no_files(*args, **kwargs):
    raise OSError("a pooled batch must not write a file")


def test_a_large_batch_travels_in_its_chunks_not_through_a_file(monkeypatch):
    # Each chunk message carries its own items, however large the batch.
    serial = run_staged(_length, "hh", LARGE_ITEMS, jobs=1)
    monkeypatch.setattr(tempfile, "mkstemp", _no_files)
    assert run_staged(_length, "hh", LARGE_ITEMS, jobs=2) == serial


def test_shutdown_then_respawn():
    shutdown_pool(wait=True)
    assert pool_stats()["workers"] == 0
    items = [str(index) for index in range(6)]
    assert run_staged(_tag, "h", items, jobs=2) == [f"h:{item}" for item in items]


class _Unrebuildable(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, left, right):
        super().__init__(f"{left}/{right}")


def _raise_key_error(header, item):
    raise KeyError(item)


def _raise_unrebuildable(header, item):
    raise _Unrebuildable(header, item)


def _return_lock(header, item):
    import threading

    return threading.Lock()


def test_task_errors_keep_their_type_and_the_worker_traceback():
    with pytest.raises(KeyError) as caught:
        run_staged(_raise_key_error, None, ["k1", "k2"], jobs=2)
    assert caught.value.args[0] in ("k1", "k2")
    assert "_raise_key_error" in str(caught.value.__cause__)


def test_unpicklable_errors_and_results_arrive_as_runtime_errors():
    if get_pool(2) is None:
        pytest.skip("host cannot spawn worker processes")
    replaced = pool_stats()["replaced"]
    with pytest.raises(RuntimeError, match="_Unrebuildable"):
        run_staged(_raise_unrebuildable, "h", ["a", "b"], jobs=2)
    with pytest.raises(RuntimeError, match="cannot be pickled.*lock"):
        run_staged(_return_lock, None, ["a", "b"], jobs=2)
    # Neither killed a worker.
    assert pool_stats()["replaced"] == replaced
    assert run_staged(_tag, "ok", ["x", "y"], jobs=2) == ["ok:x", "ok:y"]


# -- what a chunk message carries ---------------------------------------------


def _options_seen(header, item):
    options = header[0]
    return options, options.profile is ct.PROFILES[options.profile.name]


def test_registered_profiles_pickle_by_name():
    for profile in ct.PROFILES.values():
        profile.sizeof_kind("int")  # fills the cached size table
        data = pickle.dumps(profile, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(data) is profile
        assert b"_kind_size_table" not in data


def test_custom_profiles_pickle_by_value():
    wide = ct.ImplementationProfile(name="wide-char", char_bits=16, sizeof_pointer=4)
    assert pickle.loads(pickle.dumps(wide)) == wide
    # A custom profile that reuses a registered name is not the registered one.
    impostor = ct.ImplementationProfile(name="lp64", sizeof_int=8, sizeof_long=16)
    impostor.sizeof_kind("int")
    back = pickle.loads(pickle.dumps(impostor))
    assert back == impostor and back is not ct.LP64 and back != ct.LP64
    assert back.sizeof_kind("int") == 8 and back.sizeof_kind("long") == 16
    options = pickle.loads(pickle.dumps(CheckerOptions(profile=impostor)))
    assert options.profile == impostor and options.profile is not ct.LP64


def test_options_pickle_by_field_values():
    options = CheckerOptions(max_steps=12345, evaluation_order="right-to-left",
                             profile=ct.ILP32)
    data = pickle.dumps(options, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"check_memory" not in data
    back = pickle.loads(data)
    assert back == options and back.profile is ct.ILP32
    other = pickle.loads(pickle.dumps(options.without(check_memory=False)))
    assert other != options and not other.check_memory


def test_check_header_pickles_small():
    header = check_header(DEFAULT_OPTIONS, False, True, None)
    assert len(pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)) < 256


def test_a_warm_worker_gets_its_own_registered_profile_on_every_chunk():
    pool = get_pool(2)
    if pool is None:
        pytest.skip("host cannot spawn worker processes")
    header = (CheckerOptions(max_steps=777), False, True, None)
    seen = pool.run_staged(_options_seen, header, list(range(12)), chunksize=1)
    assert seen == [(header[0], True)] * 12
