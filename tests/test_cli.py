import concurrent.futures
import io
import os
import subprocess
import sys

import pytest

from canonmat import (Matrix, apply, classify_hadamard, cli, enumeration,
                      format_matrix, parse_matrix)
from canonmat.cli import main
from canonmat.enumeration import canonical_first_rows
from canonmat.equivalence import PermPair, Permutation
from conftest import DEMO_34, TRIO_A, TRIO_B, TRIO_C, read_json


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write(tmp_path, name, matrix_or_text):
    path = tmp_path / name
    text = matrix_or_text if isinstance(matrix_or_text, str) else format_matrix(matrix_or_text)
    path.write_text(text)
    return str(path)


class TestEncode:
    def test_demo(self, tmp_path):
        code, out = run("encode", write(tmp_path, "a.txt", DEMO_34))
        assert code == 0
        assert out == "r = 78 36 23\nc = 16 9 53 35\n"

    def test_trio_minimum(self, tmp_path):
        code, out = run("encode", write(tmp_path, "c.txt", TRIO_C))
        assert code == 0
        assert out == "r = 1 6 45 72\nc = 5 8 18 27\n"

    def test_zero(self, tmp_path):
        code, out = run("encode", write(tmp_path, "z.txt", "2 2 3\n0 0\n0 0\n"))
        assert code == 0
        assert out == "r = 0 0\nc = 0 0\n"


class TestCheck:
    def test_semi_but_not_canonical(self, tmp_path):
        code, out = run("check", write(tmp_path, "a.txt", TRIO_A))
        assert code == 0
        assert out == "semi-canonical: yes\ncanonical: no\n"

    def test_canonical(self, tmp_path):
        code, out = run("check", write(tmp_path, "c.txt", TRIO_C))
        assert code == 0
        assert out == "semi-canonical: yes\ncanonical: yes\n"

    def test_unsorted(self, tmp_path):
        code, out = run("check", write(tmp_path, "u.txt", "2 2 2\n1 0\n0 1\n"))
        assert code == 0
        assert out == "semi-canonical: no\ncanonical: no\n"

    def test_report(self, tmp_path):
        code, out = run("check", "--report", write(tmp_path, "c.txt", TRIO_C))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "semi-canonical: yes"
        assert lines[2].startswith("cond1: pass")
        assert lines[-1] == "verdict: canonical"


class TestCanonize:
    def test_trio(self, tmp_path):
        for mat in (TRIO_A, TRIO_B):
            code, out = run("canonize", write(tmp_path, "m.txt", mat))
            assert code == 0
            assert parse_matrix(out) == TRIO_C

    def test_zero_fixed_point(self, tmp_path):
        code, out = run("canonize", write(tmp_path, "z.txt", "2 2 2\n0 0\n0 0\n"))
        assert code == 0
        assert parse_matrix(out).rows == ((0, 0), (0, 0))

    def test_witness(self, tmp_path):
        code, out = run("canonize", "--witness", write(tmp_path, "a.txt", TRIO_A))
        assert code == 0
        lines = out.splitlines()
        assert lines[-2].startswith("rows: ") and lines[-1].startswith("cols: ")
        row_images = tuple(int(x) - 1 for x in lines[-2].split()[1:])
        col_images = tuple(int(x) - 1 for x in lines[-1].split()[1:])
        pp = PermPair(Permutation(row_images), Permutation(col_images))
        assert apply(TRIO_A, pp) == TRIO_C

    def test_witness_that_misses_the_canonical_form(self, tmp_path, capsys, monkeypatch):
        real = cli.pruned_canonical_form

        def wrong_witness(a, budget=None):
            return real(a, budget=budget)._replace(witness=PermPair.identity(a.n, a.m))

        monkeypatch.setattr(cli, "pruned_canonical_form", wrong_witness)
        manifest = str(tmp_path / "m.json")
        assert run("--manifest", manifest, "canonize", "--witness",
                   write(tmp_path, "a.txt", TRIO_A)) == (5, "")
        assert capsys.readouterr().err == ("error: witness does not reproduce "
                                           "the canonical form\n")
        assert read_json(manifest)["result"].startswith("integrity failure:")

    def test_budget(self, tmp_path):
        identity = Matrix.from_rows([[int(i == j) for j in range(8)] for i in range(8)], 2)
        path, manifest = write(tmp_path, "id8.txt", identity), str(tmp_path / "m.json")
        assert run("--manifest", manifest, "--budget", "3", "canonize", path)[0] == 4
        assert read_json(manifest)["nodes"] == 4
        assert run("--manifest", manifest, "canonize", path)[0] == 0
        assert read_json(manifest)["nodes"] > 4


class TestEnumerateAndCount:
    def test_count_only(self):
        code, out = run("enumerate", "2", "2", "2", "--count-only")
        assert code == 0
        assert out == "count=7 burnside=7 agree=true\n"

    def test_count_command(self):
        code, out = run("count", "1", "1", "5")
        assert code == 0
        assert out == "count=5 burnside=5 agree=true\n"

    def test_stream_format(self):
        code, out = run("enumerate", "2", "2", "2")
        assert code == 0
        blocks = out.split("\n\n")
        assert out.endswith("# count=7\n")
        matrices = [parse_matrix(b) for b in blocks[:-1]]
        matrices.append(parse_matrix(blocks[-1].rsplit("# count", 1)[0]))
        assert len(matrices) == 7
        codes = [m.rows for m in matrices]
        assert codes == sorted(codes)

    def test_filter_hadamard(self):
        code, out = run("enumerate", "2", "2", "3", "--filter", "hadamard")
        assert code == 0
        assert out.startswith("# predicate=hadamard\n")
        assert out.endswith("# count=2\n")

    def test_filter_weighing(self):
        code, out = run("enumerate", "2", "2", "3", "--filter", "weighing:2",
                        "--count-only")
        assert code == 0
        assert out == "count=2\n"

    def test_partition_written_when_done(self, monkeypatch):
        parallel = run("enumerate", "3", "3", "2", "--workers", "2")[1]
        calls = []
        worker = enumeration._partition

        def recording_worker(job):
            calls.append(job)
            return worker(job)

        class Out(io.StringIO):
            calls_at_first_write = None

            def write(self, text):
                if self.calls_at_first_write is None:
                    self.calls_at_first_write = len(calls)
                return super().write(text)

        monkeypatch.setattr(enumeration, "_partition", recording_worker)
        out = Out()
        assert main(["enumerate", "3", "3", "2"], out=out) == 0
        assert out.calls_at_first_write == 1
        assert len(calls) == 4
        assert out.getvalue() == parallel

    def test_pool_capped_at_partition_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

            def shutdown(self, cancel_futures=False):
                pass

        # run_partitions imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial = run("enumerate", "1", "1", "2")
        assert sizes == []
        for workers in ("2", "4", "1000"):
            assert run("enumerate", "1", "1", "2", "--workers", workers) == serial
        assert sizes == [2, 2, 2]

    def test_weighing_partitions_are_canonical_first_rows(self, monkeypatch):
        firsts = []

        def recording_worker(job):
            firsts.append(job[4])
            return [], 0, 0

        monkeypatch.setattr(enumeration, "_partition", recording_worker)
        assert run("enumerate", "5", "5", "3", "--filter", "weighing:2")[0] == 0
        assert firsts == list(canonical_first_rows(5, 3, 2))
        assert firsts == [(0, 0, 0, 1, 1), (0, 0, 0, 1, 2), (0, 0, 0, 2, 2)]

    def test_workers_byte_identical(self):
        _, serial = run("enumerate", "3", "3", "2", "--workers", "1")
        _, parallel = run("enumerate", "3", "3", "2", "--workers", "4")
        assert serial == parallel
        assert serial.endswith("# count=36\n")


# Each shorthand command and the enumerate arguments it stands for.
SHORTHAND_CASES = (
    [(["count", *shape], ["enumerate", *shape, "--count-only"])
     for shape in (("1", "1", "5"), ("2", "2", "3"), ("3", "3", "2"))]
    + [(["classify-hadamard", n], ["enumerate", n, n, "3", "--filter", "hadamard"])
       for n in ("1", "2", "3", "4")]
    + [(["classify-weighing", n, k], ["enumerate", n, n, "3", "--filter", f"weighing:{k}"])
       for n, k in (("4", "2"), ("4", "3"), ("5", "2"))]
)


@pytest.mark.parametrize("shorthand,expanded", SHORTHAND_CASES,
                         ids=[" ".join(s) for s, _ in SHORTHAND_CASES])
def test_shorthand_matches_enumerate(shorthand, expanded):
    code, out = run(*shorthand)
    assert code == 0
    for workers in ("1", "2"):
        assert run(*expanded, "--workers", workers) == (0, out)


class TestClassify:
    def test_hadamard(self):
        code, out = run("classify-hadamard", "2")
        assert code == 0
        assert out.startswith("# predicate=hadamard\n")
        assert out.endswith("# count=2\n")

    def test_hadamard_empty_order(self):
        code, out = run("classify-hadamard", "3")
        assert code == 0
        assert out == "# predicate=hadamard\n# count=0\n"

    def test_weighing(self):
        code, out = run("classify-weighing", "2", "2")
        assert code == 0
        assert out.startswith("# predicate=weighing k=2\n")
        assert out.endswith("# count=2\n")


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        assert run("encode", write(tmp_path, "bad.txt", "not a matrix\n"))[0] == 2

    def test_missing_file(self):
        assert run("encode", "/nonexistent/file.txt")[0] == 2

    def test_range_error(self, tmp_path):
        assert run("encode", write(tmp_path, "bad.txt", "2 2 2\n0 2\n1 0\n"))[0] == 3

    def test_budget_error(self, tmp_path):
        assert run("--budget", "3", "enumerate", "3", "3", "2", "--count-only")[0] == 4
        # zero is a budget, not a malformed one (a negative budget exits 2)
        assert run("--budget", "0", "canonize", write(tmp_path, "a.txt", TRIO_A)) == (4, "")

    def test_bad_filter_spec(self):
        assert run("enumerate", "2", "2", "3", "--filter", "bogus")[0] == 2

    def test_burnside_guard_before_enumeration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated past the Burnside guard")

        monkeypatch.setattr(enumeration, "_enumerate", never)
        assert run("enumerate", "13", "3", "2", "--count-only") == (4, "")

    @pytest.mark.parametrize("argv", [["classify-hadamard", "4"],
                                      ["enumerate", "4", "4", "3", "--filter", "hadamard"]])
    def test_budget_boundary_keeps_finished_partitions(self, argv):
        code, full = run("--budget", "2406", *argv)
        assert code == 0
        code, partial = run("--budget", "2405", *argv)
        assert code == 4
        assert partial.startswith("# predicate=hadamard\n4 4 3\n")
        assert full.startswith(partial)


# Malformed inputs and the exit code each must leave through, traceback-free.
BAD_INPUTS = [
    (["canonize", "FILE"], b"# caf\xe9\n2 2 2\n0 1\n1 0\n", 2),
    (["encode", "FILE"], b"2 2 2\n0 1\n1 \xff\n", 2),
    (["enumerate", "0", "3", "2"], None, 2),
    (["count", "0", "2", "2"], None, 2),
    (["enumerate", "3", "4", "3", "--filter", "hadamard"], None, 2),
    (["enumerate", "2", "2", "1", "--count-only"], None, 2),
    (["count", "2", "2", "1"], None, 2),
    (["classify-weighing", "3", "5"], None, 2),
    (["classify-weighing", "3", "0"], None, 2),
    (["classify-hadamard", "0"], None, 2),
    (["enumerate", "3", "2", "3", "--filter", "hadamard", "--count-only"], None, 2),
    (["enumerate", "2", "2", "2", "--filter", "hadamard"], None, 2),
    (["enumerate", "2", "2", "3", "--filter", "weighing:0"], None, 2),
    (["enumerate", "3", "3", "3", "--filter", "weighing:5"], None, 2),
    (["enumerate", "3", "3", "3", "--filter", "weighing:5", "--count-only"], None, 2),
    (["check", "FILE"], b"1 2 2\n0 1\n9 9 9\n", 2),
    # Numerals int() takes and the format does not; the arguments differ
    # only to keep the test ids apart.
    (["canonize", "FILE", "--witness"], b"1 1 12\n1_1\n", 2),
    (["check", "FILE", "--report"], b"1 1 +2\n1\n", 2),
    (["--budget", "0", "check", "FILE"], "1 1 \u0663\n1\n".encode(), 2),
    (["--budget", "0", "canonize", "FILE"], "1 1 \uff12\n1\n".encode(), 2),
    (["--budget", "0", "encode", "FILE"], "1 1 2\n\u0661\n".encode(), 2),
    (["--budget", "1", "encode", "FILE"], b"1 1 2\n-1\n", 3),
    (["enumerate", "2", "2", "2", "--workers", "0"], None, 2),
    # K of weighing:K is read by the file format's numeral rule too.
    (["enumerate", "4", "4", "3", "--filter", "weighing:+2"], None, 2),
    (["enumerate", "4", "4", "3", "--filter", "weighing:\u0662"], None, 2),
    (["--budget", "-1", "canonize", "FILE"], b"2 2 2\n0 1\n1 0\n", 2),
    (["--manifest", "/nonexistent/dir/m.json", "count", "2", "2", "2"], None, 2),
    (["--manifest", os.curdir, "count", "2", "2", "2"], None, 2),
    (["canonize", "/nonexistent/x.txt"], None, 2),
]


@pytest.mark.parametrize("argv,data,code", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _, _ in BAD_INPUTS])
def test_bad_input_exit_code(tmp_path, capsys, argv, data, code):
    if data is not None:
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert run(*argv) == (code, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for missing in (arg for arg in argv if arg.startswith("/nonexistent/")):
        assert err.count(missing) == 1, err


# Argument values int() takes and the file format's numeral rule does not:
# argparse rejects each as a usage error, before any output.
@pytest.mark.parametrize("argv", [
    ["count", "\u0663", "\u0663", "\u0662"],
    ["count", "3", "3", "2_0"],
    ["--budget", "\u0661\u0660", "count", "3", "3", "2"],
    ["enumerate", "3", "3", "2", "--count-only", "--workers", "\u0662"],
    ["classify-weighing", "4", "+2"],
    ["classify-hadamard", " 4"],
], ids=repr)
def test_bad_numeral_argument_is_a_usage_error(capsys, argv):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        main(argv, out=out)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert out.getvalue() == captured.out == ""
    assert "invalid numeral value" in captured.err


class TestManifest:
    def test_written_and_stable(self, tmp_path):
        src = write(tmp_path, "a.txt", TRIO_A)
        m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        assert run("--manifest", m1, "encode", src)[0] == 0
        assert run("--manifest", m2, "encode", src)[0] == 0
        a = read_json(m1)
        b = read_json(m2)
        a.pop("elapsed_s"), b.pop("elapsed_s")
        # the recorded argv contains the differing --manifest paths
        assert a.pop("command")[2:] == b.pop("command")[2:]
        assert a == b
        assert a["shape"] == [4, 4, 3]
        assert len(a["input_digest"]) == 64

    def test_shorthand_records_enumerate_nodes(self, tmp_path):
        nodes = []
        for argv in (["classify-hadamard", "4"],
                     ["enumerate", "4", "4", "3", "--filter", "hadamard"]):
            path = str(tmp_path / "m.json")
            assert run("--manifest", path, *argv)[0] == 0
            nodes.append(read_json(path)["nodes"])
        assert nodes[0] == nodes[1] > 0

    def test_classify_library_nodes_match_cli(self, tmp_path):
        path = str(tmp_path / "m.json")
        assert run("--manifest", path, "classify-hadamard", "4")[0] == 0
        nodes = read_json(path)["nodes"]
        assert classify_hadamard(4).nodes == nodes == 2406

    def test_records_processes_used(self, tmp_path):
        path = str(tmp_path / "m.json")
        # a pool has one process per partition at most: 1 x 1 over p=2 has 2
        for argv in (["enumerate", "1", "1", "2"], ["enumerate", "1", "1", "2", "--count-only"]):
            assert run("--manifest", path, *argv, "--workers", "4")[0] == 0
            assert read_json(path)["workers"] == 2
        # counts use the pool too: 3 x 3 over p=2 has 4 partitions
        assert run("--manifest", path, "enumerate", "3", "3", "2", "--count-only",
                   "--workers", "2") == (0, "count=36 burnside=36 agree=true\n")
        assert read_json(path)["workers"] == 2

    def test_count_nodes_include_leaf_tests(self, tmp_path):
        # 870 rows placed and 507 leaf-test nodes (tests/test_enumeration.py).
        path = str(tmp_path / "m.json")
        assert run("--manifest", path, "enumerate", "4", "4", "2", "--count-only")[0] == 0
        nodes = read_json(path)["nodes"]
        assert nodes == 1377
        assert run("--budget", str(nodes), "enumerate", "4", "4", "2",
                   "--count-only") == (0, "count=317 burnside=317 agree=true\n")
        assert run("--manifest", path, "--budget", str(nodes - 1), "enumerate", "4", "4",
                   "2", "--count-only") == (4, "")
        assert read_json(path)["nodes"] == nodes

    @pytest.mark.parametrize("budget,workers,nodes",
                             [("2967", "1", 2968), ("2967", "2", 1810 + 2968),
                              ("4000", "1", 4001), ("4000", "2", 1810 + 2968)],
                             ids=["1", "2", "4000-1", "4000-2"])
    def test_budget_overrun_inside_partition_keeps_finished_nodes(self, tmp_path, budget,
                                                                  workers, nodes):
        # Partition 000 finishes with 1,810 nodes and 001 with 2,968.  One
        # worker caps 001 at the budget left, so the run stops at the budget
        # + 1.  A pool caps it at the whole budget: at 2,967 it overruns at
        # 2,968 of its own; at 4,000 it finishes, and only the running
        # total, checked at the partition boundary, passes the budget.
        path = str(tmp_path / "m.json")
        code, out = run("--manifest", path, "--budget", budget, "enumerate", "4", "3", "3",
                        "--workers", workers)
        assert code == 4 and out.startswith("4 3 3\n0 0 0\n")
        assert out.count("4 3 3\n") == 738  # partition 000's classes, and no more
        assert read_json(path)["nodes"] == nodes

    @pytest.mark.parametrize("shape", [("3", "3", "2"), ("4", "4", "2")], ids=["3x3x2", "4x4x2"])
    def test_count_same_at_one_and_two_workers(self, tmp_path, shape):
        results = []
        for workers in ("1", "2"):
            path = str(tmp_path / f"m{workers}.json")
            results.append((*run("--manifest", path, "enumerate", *shape, "--count-only",
                                 "--workers", workers),
                            read_json(path)["nodes"]))
        assert results[0] == results[1]
        assert results[0][0] == 0 and results[0][2] > 0

    def test_records_nodes(self, tmp_path):
        path = str(tmp_path / "m.json")
        assert run("--manifest", path, "count", "2", "2", "2")[0] == 0
        manifest = read_json(path)
        assert manifest["nodes"] > 0
        assert manifest["result"] == "count=7"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_search_deeper_than_the_recursion_limit(self, tmp_path, workers):
        path = str(tmp_path / "m.json")
        code, out = run("--manifest", path, "enumerate", "1000", "1", "2", "--workers", workers)
        assert code == 0 and out.endswith("\n# count=1001\n")
        assert read_json(path)["result"] == "count=1001"


def run_cli(argv, prelude="", **kwargs):
    """A fresh interpreter's run of the CLI on `argv` after `prelude`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = f"import sys\n{prelude}\nfrom canonmat.cli import main\nsys.exit(main({argv!r}))\n"
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), **kwargs)


def test_canonize_deeper_than_the_recursion_limit(tmp_path):
    # The identity branches at every row; the search is one loop, so the 59
    # branching nodes on its first path need no stack frames under a limit of 100.
    identity = Matrix(60, 60, 2, tuple(tuple(int(i == j) for j in range(60)) for i in range(60)))
    minimum = Matrix(60, 60, 2, tuple(reversed(identity.rows)))
    path, manifest = write(tmp_path, "identity.txt", identity), str(tmp_path / "m.json")
    done = run_cli(["--manifest", manifest, "canonize", path], "sys.setrecursionlimit(100)")
    assert (done.returncode, done.stderr) == (0, "")
    assert parse_matrix(done.stdout) == minimum
    assert read_json(manifest)["nodes"] == 1890


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps memory on Linux")
def test_budget_zero_stops_before_building_rows():
    # 2^26 rows of 26 entries do not fit in 600 MiB; the first charge comes first.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))

    done = run_cli(["--budget", "0", "enumerate", "1", "26", "2"], preexec_fn=cap)
    assert done.returncode == 4 and done.stdout == ""
    assert done.stderr == "error: node budget 0 exceeded\n"


def loaded_after_count(module, *options):
    """Whether a fresh interpreter has `module` loaded after `count 2 2 3`
    with the given global options."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import sys\nfrom canonmat.cli import main\n"
              f"main([*{options!r}, 'count', '2', '2', '3'])\n"
              f"print({module!r} in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    counted, loaded = done.stdout.splitlines()
    assert counted == "count=27 burnside=27 agree=true"
    return loaded == "True"


def test_counting_never_loads_hashlib():
    assert not loaded_after_count("_hashlib")


def test_counting_never_loads_the_process_pool():
    assert not loaded_after_count("concurrent.futures.process")


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "json"])
def test_counting_never_loads(module):
    # The records are named tuples, and only a manifest needs json.
    assert not loaded_after_count(module)


def test_manifest_loads_json(tmp_path):
    assert loaded_after_count("json", "--manifest", str(tmp_path / "m.json"))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_closed_stdout_ends_quietly(workers):
    # The 4 x 3 x 3 stream is 156,655 bytes, more than a pipe holds, so the
    # program is still writing when the reader closes after the first line.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "canonmat.cli", "enumerate", "4", "3", "3",
                             "--workers", workers], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    try:
        assert proc.stdout.readline() == b"4 3 3\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()
