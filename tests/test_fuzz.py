"""Seeded byte-mutation fuzzing of every file parser: only CtdrError escapes.

Each case writes valid files, then feeds the parser mutants of one of them:
bits flipped, bytes deleted or inserted, the tail cut off. A fixed seed per
case makes the mutants the same on every run. Inserts are at most four bytes
and the fixtures are small, so a mutated size field stays small too.
"""

import argparse
import gzip
import random
import struct

import numpy as np
import pytest

from ctdr.cli import _start
from ctdr.data import FeatureTransform, load_idx, load_sparse, save_sparse, synth_two_moons
from ctdr.errors import CtdrError
from ctdr.model import Architecture, init_params, load_checkpoint, save_checkpoint
from ctdr.numerics import Rng

MUTANTS = 400


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three random flips, deletes, inserts or truncations."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op, at = rng.randrange(4), rng.randrange(len(buf) + 1)
        if op == 0 and at < len(buf):
            buf[at] ^= 1 << rng.randrange(8)
        elif op == 1:
            del buf[at : at + rng.randint(1, 4)]
        elif op == 2:
            buf[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
        else:
            del buf[at:]
    return bytes(buf)


def fuzz(files, load, seed: int, count: int = MUTANTS, located: bool = True) -> int:
    """Load `count` mutants, each of one of `files`; returns how many loaded.
    With `located`, each error must name one of the files."""
    rng = random.Random(seed)
    originals = [path.read_bytes() for path in files]
    loaded = 0
    for i in range(count):
        k = rng.randrange(len(files))
        files[k].write_bytes(mutate(originals[k], rng))
        try:
            load()
            loaded += 1
        except CtdrError as exc:
            if located and not any(str(path) in str(exc) for path in files):
                pytest.fail(f"mutant {i} of {files[k].name}: error names no file: {exc}")
        except Exception as exc:  # noqa: BLE001 - anything else is the failure under test
            pytest.fail(f"mutant {i} of {files[k].name} raised {exc!r}")
        files[k].write_bytes(originals[k])
    return loaded


def checkpoint_case(tmp_path):
    arch = Architecture.mlp(3, (4,), 2).with_generator(2, (3,))
    path = tmp_path / "model.ctdr"
    save_checkpoint(init_params(arch, Rng(0, 1)), path)
    return [path], lambda: load_checkpoint(path)


def idx_case(tmp_path, gz):
    pixels = np.arange(2 * 3 * 3, dtype=np.uint8)
    blobs = {
        "images.idx": struct.pack(">IIII", 2051, 2, 3, 3) + pixels.tobytes(),
        "labels.idx": struct.pack(">II", 2049, 2) + bytes([1, 0]),
    }
    paths = [tmp_path / name for name in blobs]
    for path, blob in zip(paths, blobs.values()):
        path.write_bytes(gzip.compress(blob, mtime=0) if gz else blob)
    return paths, lambda: load_idx(*paths, num_classes=2)


def sparse_case(tmp_path):
    path = tmp_path / "rows.txt"
    save_sparse(synth_two_moons(6, 35.0, 0.1, seed=0).source, path)
    return [path], lambda: load_sparse(path)


def transform_case(tmp_path):
    path = tmp_path / "transform.json"
    FeatureTransform(np.array([0.5, -1.25]), np.array([2.0, 1e-3])).save(path)
    return [path], lambda: FeatureTransform.load(path)


def config_case(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "data = two_moons\nn = 40\nhidden = 8,4\ncombo = ss,tu,ta\nlr = 0.01\nprior = 0.6,0.4\n"
        "fake_mode = generator\n",
        encoding="utf-8",
    )
    # the whole checked path of `ctdr train`: scopes, the pair, and the run built on it
    return [path], lambda: _start(argparse.Namespace(config=str(path), seed=None, set=None), "train")


CASES = {
    "checkpoint": checkpoint_case,
    "idx": lambda tmp_path: idx_case(tmp_path, gz=False),
    "idx_gzip": lambda tmp_path: idx_case(tmp_path, gz=True),
    "sparse": sparse_case,
    "transform": transform_case,
    "config": config_case,
}


@pytest.mark.parametrize("case", list(CASES))
def test_mutated_files_raise_only_ctdr_errors(tmp_path, case):
    files, load = CASES[case](tmp_path)
    load()  # the unmutated files load
    loaded = fuzz(files, load, seed=list(CASES).index(case))
    assert 0 < loaded < MUTANTS  # some mutants still parse, the rest are rejected


def test_mutate_is_seeded_and_changes_the_bytes():
    data = bytes(range(32))
    rng_a, rng_b = random.Random(7), random.Random(7)
    mutants = [mutate(data, rng_a) for _ in range(50)]
    assert mutants == [mutate(data, rng_b) for _ in range(50)]
    assert sum(m != data for m in mutants) >= 45
