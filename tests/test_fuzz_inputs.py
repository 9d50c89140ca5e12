"""A seeded input fuzzer: every file a command reads, mutated, must end in
a documented exit code (0, 2 config, 3 data, 4 numerical), never in an
exception or a hang.

Each mutant is one file of a 60-node dataset directory (or a model spec,
config or run record beside it) with one mutation: a byte flip, a
truncation, an inserted token (nan, 1e400, 2**64, NUL, invalid UTF-8), or
the file replaced by an empty directory. The commands that read the file
run in-process through cli.main.
"""

import json
import os
import random
import signal
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from compatgnn.cli import main
from compatgnn.graph import generate_splits, save_dataset, save_splits
from compatgnn.mp import build_preset
from compatgnn.synth import generate_graph, make_synth_spec

SEED = 20240527
N_MUTANTS = 300
MUTANT_SECONDS = 5       # a mutant still running after this is a hang
TOKENS = (b"nan", b"1e400", b"18446744073709551616", b"\x00", b"\xff\xfe")


class Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise Hang(f"no exit within {MUTANT_SECONDS} s")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """{name: (path, [argv, ...])}: each file and the commands that read it."""
    root = tmp_path_factory.mktemp("fuzz")
    ds, out = str(root / "ds"), str(root / "out")
    g = generate_graph(make_synth_spec(60, 3, 0.3, "hard", 6.0, seed=3, d_f=4))
    save_dataset(g, ds)
    save_splits(generate_splits(g, 1, seed=3), os.path.join(ds, "splits"))
    spec, config = str(root / "spec.json"), str(root / "config.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(build_preset("mixhop", n_layers=2, hidden_dim=8).to_dict(), fh, indent=1)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"model": "compatgnn", "lr": 0.05, "nhidden": 8, "layers": 2,
                   "lambda": 0.1, "patience": 5, "seed": 1}, fh, indent=1)
    with redirect_stdout(StringIO()):
        assert main(["train", "--data", ds, "--config", config, "--out", out,
                     "--max-epochs", "3"]) == 0
    run = os.path.join(out, "run.json")

    inspect = ["dataset", "inspect", ds]
    train = ["train", "--data", ds, "--nhidden", "8", "--max-epochs", "2"]
    estimated = ["cm", "--data", ds, "--mode", "estimated", "--run", run,
                 "--out", str(root / "cm")]
    reads_ds = [inspect, train, estimated]
    files = {name: (os.path.join(ds, name), reads_ds)
             for name in ("meta.json", "edges.tsv", "labels.tsv", "features.f32")}
    files["split"] = (os.path.join(ds, "splits", "split_0.json"), [train])
    files["spec"] = (spec, [["train", "--data", ds, "--model", spec,
                             "--max-epochs", "2"]])
    files["config"] = (config, [["train", "--data", ds, "--config", config,
                                 "--max-epochs", "2"]])
    files["run"] = (run, [["degree-report", "--runs", run], estimated])
    return files


def mutate(rng, data):
    """(description, mutated bytes), or (description, None) for a file
    replaced by an empty directory."""
    kind = rng.choice(("flip", "flip", "truncate", "insert", "insert", "dir"))
    if kind == "dir":
        return "dir", None
    at = rng.randrange(len(data) + (kind == "insert"))
    if kind == "flip":
        return f"flip@{at}", data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    if kind == "truncate":
        return f"truncate@{at}", data[:at]
    token = rng.choice(TOKENS)
    return f"insert {token!r}@{at}", data[:at] + token + data[at:]


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_every_mutated_input_exits_with_a_documented_code(files):
    originals = {}
    for path, _ in files.values():
        with open(path, "rb") as fh:
            originals[path] = fh.read()
    rng = random.Random(SEED)
    names = sorted(files)
    failures, codes = [], {}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for i in range(N_MUTANTS):
            name = names[i % len(names)]
            path, commands = files[name]
            what, data = mutate(rng, originals[path])
            os.remove(path)
            if data is None:
                os.mkdir(path)
            else:
                with open(path, "wb") as fh:
                    fh.write(data)
            for argv in commands:
                signal.alarm(MUTANT_SECONDS)
                try:
                    code, err = run_cli(argv)
                except Exception as exc:     # includes Hang
                    failures.append(f"{name} {what} {argv[0]}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    signal.alarm(0)
                codes[code] = codes.get(code, 0) + 1
                lines = err.strip().splitlines()
                if code not in (0, 2, 3, 4) or (code and len(lines) != 1):
                    failures.append(f"{name} {what} {argv[0]}: exit {code}, stderr {err!r}")
            if data is None:
                os.rmdir(path)
            with open(path, "wb") as fh:
                fh.write(originals[path])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, f"{len(failures)} mutants failed:\n" + "\n".join(failures)
    # the corpus reaches every kind of exit but the numerical one
    assert {0, 2, 3} <= set(codes), codes
