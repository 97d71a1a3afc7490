"""The structural plan-part digest (``repro.dataflow.digest``).

What a DoFn's digest must ignore — where its source sits (path, line
numbers) and the interpreter's hash seed — and what it must see: every
constant, default, keyword default, closure-cell value, referenced
module-global, nested body and captured array element.  Anything the
pickler cannot reduce is ``None`` ("not checkpointable"), never an error.
"""

import functools
import hashlib
import importlib.util
import os
import pickle
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.dataflow.columnar import BatchDoFn
from repro.dataflow.digest import part_digest
from repro.dataflow.pcollection import Pipeline

_SOURCE = textwrap.dedent(
    """
    import numpy as np

    SCALE = {scale}


    def make(offset, table):
        def dofn(x, bias={bias}, *, gain={gain}):
            inner = lambda y: y * {inner}
            return (
                inner(x) * SCALE + offset + bias + gain + {const}
                + float(table[0]) + np.pi
            )

        return dofn
    """
)

_BASE = {"scale": 2.0, "bias": 3, "gain": 4, "inner": 5, "const": 6}


def _dofn(directory, *, shift=0, offset=1.5, table=None, **changed):
    """``make(offset, table)`` from the template written under
    ``directory`` (module name fixed, path and line numbers not), with
    ``shift`` comment lines above it."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "dofns.py"
    path.write_text("# moved\n" * shift + _SOURCE.format(**{**_BASE, **changed}))
    spec = importlib.util.spec_from_file_location("dofns", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if table is None:
        table = np.arange(64, dtype=np.float64)
    return module.make(offset, table)


def test_path_and_line_numbers_do_not_move_the_digest(tmp_path):
    here = _dofn(tmp_path / "a")
    there = _dofn(tmp_path / "somewhere" / "else", shift=7)
    assert here.__code__.co_filename != there.__code__.co_filename
    assert here.__code__.co_firstlineno != there.__code__.co_firstlineno
    assert here(2) == there(2)
    digest = part_digest(here)
    assert digest is not None and len(digest) == 32
    assert part_digest(there) == digest


@pytest.mark.parametrize(
    "changed",
    [
        {"const": 7},
        {"bias": 30},  # a default
        {"gain": 40},  # a keyword default
        {"offset": 2.5},  # a closure-cell value
        {"scale": 2.5},  # a referenced module global
        {"inner": 50},  # the nested lambda's body
    ],
    ids=lambda changed: next(iter(changed)),
)
def test_every_behavioural_input_moves_the_digest(tmp_path, changed):
    assert part_digest(_dofn(tmp_path / "b", **changed)) != part_digest(
        _dofn(tmp_path / "a")
    )


def test_one_element_of_a_captured_array_moves_the_digest(tmp_path):
    table = np.arange(64, dtype=np.float64)
    edited = table.copy()
    edited[17] += 1.0
    base = part_digest(_dofn(tmp_path / "a", table=table))
    assert part_digest(_dofn(tmp_path / "a", table=table.copy())) == base
    assert part_digest(_dofn(tmp_path / "a", table=edited)) != base


class _Scaler:
    def __init__(self, factor):
        self.factor = factor

    def apply(self, x):
        return x * self.factor


def _recursive_pair():
    def even(n):
        return n == 0 or odd(n - 1)

    def odd(n):
        return n != 0 and even(n - 1)

    return even


def test_dofn_shapes_the_engine_uses_digest():
    twin = BatchDoFn(lambda x: x + 1, lambda shard: [x + 1 for x in shard])
    partial = functools.partial(lambda x, y: x + y, 3)
    method = _Scaler(2.0).apply
    parts = [twin, partial, method, _recursive_pair()]
    digests = [part_digest(part) for part in parts]
    assert all(digest is not None for digest in digests)
    assert len(set(digests)) == len(parts)
    # Stable across a second, separately built copy of each.
    assert part_digest(_recursive_pair()) == digests[3]
    assert part_digest(_Scaler(2.0).apply) == digests[2]
    assert part_digest(_Scaler(3.0).apply) != digests[2]


def test_importable_functions_stay_by_reference():
    """Library code is named, not hashed — the stream is the stdlib's."""
    expected = hashlib.sha256(pickle.dumps(textwrap.dedent, protocol=5)).digest()
    assert part_digest(textwrap.dedent) == expected


_SEED_SCRIPT = textwrap.dedent(
    """
    from repro.dataflow.digest import part_digest

    def member(x):
        return x in {"a", "b", "c"}

    def make(lookup):
        return lambda x: lookup.get(x, 0)

    print(part_digest(member).hex())
    print(part_digest(make({"one": 1, "two": 2, "three": 3})).hex())
    """
)


def _digest_lines(script, hash_seed):
    """``script``'s stdout lines, run under ``PYTHONHASHSEED=hash_seed``."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.split()


def test_hash_seed_does_not_move_the_digest():
    first = _digest_lines(_SEED_SCRIPT, "1")
    second = _digest_lines(_SEED_SCRIPT, "4242")
    assert len(first) == 2 and first == second


_SET_SCRIPT = textwrap.dedent(
    """
    from repro.dataflow.digest import part_digest

    names = {f"name-{i}" for i in range(20)}

    def make(members):
        return lambda x: x in members

    print(part_digest(make(names)).hex())
    print(part_digest(make(frozenset(names))).hex())
    print(part_digest(make({1, 2, frozenset(names)})).hex())
    """
)


def test_captured_set_of_strings_digests_in_canonical_order():
    """A runtime ``set``/``frozenset`` iterates in hash-seed order; the
    digest writes its elements sorted by their own digests instead."""
    first = _digest_lines(_SET_SCRIPT, "1")
    second = _digest_lines(_SET_SCRIPT, "2")
    assert len(first) == 3 and first == second
    assert len(set(first)) == 3


def test_set_elements_still_move_the_digest():
    names = {f"name-{i}" for i in range(20)}
    digest = part_digest(lambda x, s=names: x in s)
    assert part_digest(lambda x, s=set(names): x in s) == digest
    assert part_digest(lambda x, s=names | {"extra"}: x in s) != digest
    assert part_digest(lambda x, s=frozenset(names): x in s) != digest


def test_unpicklable_capture_is_not_checkpointable(tmp_path):
    lock = threading.Lock()

    def guarded(x):
        with lock:
            return x + 1

    assert part_digest(guarded) is None
    ckpt = tmp_path / "ckpt"
    with Pipeline(num_shards=2, checkpoint_dir=str(ckpt)) as pipeline:
        out = sorted(pipeline.create(range(10)).map(guarded).to_list())
        assert out == list(range(1, 11))
        assert pipeline.metrics.checkpoint_stores == 0
    assert not [f for f in os.listdir(ckpt) if f.endswith(".ckpt")]
