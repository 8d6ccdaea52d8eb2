import json
import os
import subprocess
import sys
import time

import pytest

from graphqss import access, bounds, cli, graphs
from graphqss.graphs import family, serialize_graph

C5_TEXT = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.el"
    path.write_text(C5_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassify:
    def test_accessing_three_set(self, capsys, c5_file):
        code, doc = run_json(capsys, ["classify", "--graph", c5_file, "--B", "0,1,2"])
        assert code == 0
        assert doc["q_verdict"] == "QAccessing"
        assert doc["c_verdict"] == "Accessing"
        assert doc["witness_D"] == [1]
        assert doc["rank_residual"] == 1

    def test_blind_pair_negative_exit(self, capsys, c5_file):
        code, doc = run_json(capsys, ["classify", "--graph", c5_file, "--B", "0,1"])
        assert code == 1
        assert doc["q_verdict"] == "QBlind"
        assert doc["witness_C"] == [2, 4]

    def test_family_source(self, capsys):
        code, doc = run_json(
            capsys, ["classify", "--family", "cycle", "--n", "5", "--B", "0,1,2"]
        )
        assert code == 0 and doc["q_verdict"] == "QAccessing"


class TestWitness:
    def test_witness_pair(self, capsys, c5_file):
        code, doc = run_json(capsys, ["witness", "--graph", c5_file, "--B", "0,1,2"])
        assert code == 0
        assert doc["D"] == [1] and doc["C"] == [0, 2]

    def test_no_witness(self, capsys):
        code, doc = run_json(
            capsys, ["witness", "--family", "complete", "--n", "3", "--B", "0,1"]
        )
        assert code == 1 and doc["q_accessing"] is False


class TestThreshold:
    def test_c5(self, capsys, c5_file):
        code, doc = run_json(capsys, ["threshold", "--graph", c5_file])
        assert code == 0
        assert doc["k_star"] == 3
        assert doc["certificate_fail"] == [0, 1]

    def test_c5pow_family(self, capsys):
        code, doc = run_json(capsys, ["threshold", "--family", "c5pow", "--i", "1"])
        assert code == 0 and doc["k_star"] == 3

    def test_limit_resource_error(self, capsys):
        code = cli.run(
            ["threshold", "--family", "cycle", "--n", "30"]
        )
        err = capsys.readouterr().err
        assert code == 3 and "limit" in err

    def test_no_limit_option(self, capsys):
        # the enumeration cap is access.ENUMERATION_LIMIT, not an option
        assert cli.run(["threshold", "--limit", "30", "--family", "cycle", "--n", "5"]) == 2
        assert capsys.readouterr().out == ""


class TestTieBreakGolden:
    """Witness JSON recorded before the solver moved to vertex coordinates.

    Each coalition has several valid witnesses (4 to 32 for D and C), so a
    changed tie-break changes the output.
    """

    CASES = [
        (9, 889, None, "0,1,2,3,4,5,6", [5], None, [6]),
        (8, 321, None, "0,1,2,4,5,6,7", [7], None, [6]),
        (6, 443, None, "0,2,3,4,5", [5], None, [3]),
        (7, 983, "1,3,5", "1,2,3,4,5,6", [5], None, []),
        (6, 820, None, "5", None, [4], None),
        (8, 481, None, "3,5,6", None, [7], None),
    ]

    @pytest.mark.parametrize("n,seed,a,b,d,c_blind,c_pair", CASES)
    def test_classify_and_witness(self, capsys, n, seed, a, b, d, c_blind, c_pair):
        argv = ["--family", "random", "--n", str(n), "--p", "0.5", "--seed", str(seed), "--B", b]
        argv += [] if a is None else ["--A", a]
        accessing = d is not None  # every accessing case here is QAccessing
        code, doc = run_json(capsys, ["classify", *argv])
        assert (code, doc["witness_D"], doc["witness_C"]) == (0 if accessing else 1, d, c_blind)
        assert doc["rank_residual"] == int(accessing)
        code, doc = run_json(capsys, ["witness", *argv])
        if accessing:
            assert (code, doc["D"], doc["C"]) == (0, d, c_pair)
        else:
            assert code == 1 and doc["error"] == "coalition cannot access a classical secret"


class TestProductAndBound:
    def test_product(self, capsys):
        code, doc = run_json(
            capsys, ["product", "--n1", "5", "--k1", "3", "--n2", "5", "--k2", "3"]
        )
        assert code == 0 and (doc["n"], doc["k"]) == (25, 17)

    def test_bound_holds(self, capsys):
        code, doc = run_json(capsys, ["bound", "--n", "5", "--k", "3"])
        assert code == 0 and doc["lhs"] == 10 and doc["rhs"] == 30

    def test_bound_violated(self, capsys):
        code, doc = run_json(capsys, ["bound", "--n", "7", "--k", "7"])
        assert code == 1 and doc["holds"] is False

    def test_min_k(self, capsys):
        code, doc = run_json(capsys, ["bound", "--min-k", "--n", "100"])
        assert code == 0 and doc["min_feasible_k"] == 52

    def test_pure_qss(self, capsys):
        code, doc = run_json(capsys, ["bound", "--pure-qss", "--max-k", "40"])
        assert code == 0
        assert doc["chain_k_max"] == 39 and doc["chain_n_max"] == 77
        assert doc["stated_cutoff_n"] == 79

    def test_min_k_capped_before_allocating(self, capsys):
        assert cli.run(["bound", "--min-k", "--n", "100001"]) == cli.EXIT_RESOURCE == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource limit:")

    def test_pure_qss_capped_before_scanning(self, capsys):
        assert cli.run(["bound", "--pure-qss", "--max-k", "1001"]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource limit:")

    @pytest.mark.parametrize("max_k", ["0", "-3"])
    def test_pure_qss_rejects_empty_scan(self, capsys, max_k):
        assert cli.run(["bound", "--pure-qss", "--max-k", max_k]) == 2
        assert capsys.readouterr().out == ""

    def test_pure_qss_max_k_defaults_to_100(self, capsys):
        assert run_json(capsys, ["bound", "--pure-qss"]) == run_json(capsys, ["bound", "--pure-qss", "--max-k", "100"])

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--pure-qss", "--max-k", "3", "--min-k", "--n", "50"], "--pure-qss does not read --n, --min-k"),
            (["--pure-qss", "--n", "0"], "--pure-qss does not read --n"),
            (["--pure-qss", "--k", "3"], "--pure-qss does not read --k"),
            (["--min-k", "--n", "50", "--k", "30"], "--min-k does not read --k"),
            (["--min-k", "--n", "50", "--max-k", "100"], "--min-k does not read --max-k"),
            (["--n", "5", "--k", "3", "--max-k", "100"], "bound --n --k does not read --max-k"),
        ],
    )
    def test_unread_mode_option_refused(self, capsys, argv, err):
        # each mode reads its own options: --pure-qss --max-k, --min-k --n, the plain mode --n and --k
        assert cli.run(["--json", "bound", *argv]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {err}\n")


    def test_counting_inequality_capped(self, capsys, monkeypatch):
        # the exact sum is O(n^2): refused before any binomial is built
        monkeypatch.setattr(bounds, "_primes", None)
        assert cli.run(["bound", "--n", "1000000", "--k", "1000000"]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource limit: n=1000000 exceeds counting-bound limit 100000\n"


@pytest.fixture
def digit_limit():
    """The interpreter's default int-to-str limit, restored afterwards."""
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("no int-to-str limit on this interpreter")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


class TestBoundDigitLimit:
    # at k = n//2 + 1 the inequality fails, so lhs is the larger side
    def test_just_under_the_limit_prints(self, capsys, digit_limit):
        code, doc = run_json(capsys, ["--json", "bound", "--n", "14291", "--k", "7146"])
        assert code == 1 and doc["lhs"] > doc["rhs"]
        assert 10 ** (digit_limit - 1) <= doc["lhs"] < 10**digit_limit

    @pytest.mark.parametrize(
        "n,k,side",
        [("14292", "7147", "lhs"), ("12000", "7900", "rhs"), ("20000", "10200", "lhs")],
    )
    def test_over_the_limit_refused(self, capsys, digit_limit, n, k, side):
        assert cli.run(["--json", "bound", "--n", n, "--k", k]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"resource limit: {side} has more than 4300 digits, the int-to-str limit\n"

    @pytest.mark.parametrize(
        "lhs, code", [(10**4300 - 1, 1), (10**4300, cli.EXIT_RESOURCE)], ids=["below", "at"]
    )
    def test_power_of_ten_boundary(self, capsys, digit_limit, monkeypatch, lhs, code):
        report = bounds.BoundReport(5, 3, lhs, 1, False)
        monkeypatch.setattr(bounds, "counting_inequality", lambda n, k: report)
        assert cli.run(["--json", "bound", "--n", "5", "--k", "3"]) == code
        captured = capsys.readouterr()
        if code == 1:
            assert json.loads(captured.out)["lhs"] == lhs and captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err == "resource limit: lhs has more than 4300 digits, the int-to-str limit\n"


def test_product_over_the_limit_refused(capsys, digit_limit):
    nines = "9" * 2200  # n = nines**2 has 4,400 digits
    assert cli.run(["--json", "product", "--n1", nines, "--k1", "1", "--n2", nines, "--k2", "1"]) == cli.EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: n has more than 4300 digits, the int-to-str limit\n"


class TestCapBeforeBuild:
    """A generated graph over its command's cap is refused unbuilt, with the
    message and exit code the built graph would get."""

    @pytest.fixture
    def no_builders(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("generated graph was built")

        monkeypatch.setattr(graphs, "family", fail)
        monkeypatch.setattr(graphs, "c5_power", fail)

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["threshold", "--family", "complete", "--n", "3125"], "n=3125 exceeds enumeration limit 26"),
            (["threshold", "--family", "c5pow", "--i", "5"], "n=3125 exceeds enumeration limit 26"),
            (["simulate", "--family", "complete", "--n", "3125", "--B", "0,1"], "3125 qubits exceeds limit 12"),
            (["simulate", "--family", "c5pow", "--i", "2", "--B", "0"], "25 qubits exceeds limit 12"),
            (
                ["protocol-run", "--family", "random", "--n", "250", "--p", "0.5", "--k", "3", "--coalition", "0"],
                "n=250 exceeds enumeration limit 26",
            ),
        ],
    )
    def test_refused_without_building(self, capsys, no_builders, argv, err):
        start = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_RESOURCE, "", f"resource limit: {err}\n")
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "--A", "40"],
            ["threshold", "--A", ""],
            ["threshold", "--A", "1,2"],
            ["simulate", "--B", "40"],
            ["simulate", "--A", "", "--B", "1"],
            ["simulate", "--A", "1", "--B", "1"],
            ["protocol-run", "--k", "99", "--coalition", "1"],
            ["protocol-run", "--k", "3", "--coalition", "x"],
            ["protocol-run", "--k", "3", "--coalition", "1", "--secret", "1,1"],
            ["protocol-run", "--k", "3", "--coalition", "1", "--c", "300"],
        ],
    )
    def test_same_verdict_as_built_graph(self, capsys, tmp_path, argv):
        path = tmp_path / "k30.el"
        path.write_text(serialize_graph(family("complete", 30)))
        cmd, rest = argv[0], argv[1:]
        built = cli.run([cmd, "--graph", str(path), *rest]), capsys.readouterr()
        unbuilt = cli.run([cmd, "--family", "complete", "--n", "30", *rest]), capsys.readouterr()
        assert unbuilt == built and built[0] in (cli.EXIT_USAGE, cli.EXIT_RESOURCE)


class TestInternalFailure:
    def test_failed_witness_verification_exits_4(self, capsys, monkeypatch, c5_file):
        # a wrong odd neighborhood makes the solver's witness fail its check
        monkeypatch.setattr(access, "odd_mask", lambda g, mask: (1 << g.n) - 1)
        code = cli.run(["witness", "--graph", c5_file, "--B", "0,1,2"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 4
        assert captured.out == ""
        assert captured.err.startswith("internal error:") and captured.err.count("\n") == 1

    def test_span_test_and_witness_disagree_exits_4(self, capsys, monkeypatch):
        # a span test with its answer flipped sends classify to the other witness
        real = access._accessing
        monkeypatch.setattr(access, "_accessing", lambda *masks: not real(*masks))
        code = cli.run(["classify", "--family", "cycle", "--n", "5", "--B", "0,1,2"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL
        assert captured.out == ""
        assert captured.err == "internal error: blind witness missing or failed verification\n"

    def test_protocol_state_check_exits_4(self, capsys, monkeypatch):
        # a witness D with even overlap with A leaves Z_A|G> on ancilla 0
        d, c = graphs.VertexSet.empty(5), graphs.VertexSet.from_iterable(5, [0, 2])
        monkeypatch.setattr(access, "reconstruction_witnesses", lambda g, a, b: (d, c))
        code = cli.run(["protocol-run", "--family", "cycle", "--n", "5", "--k", "3", "--coalition", "0,1,2"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL and captured.out == ""
        assert captured.err == "internal error: register is not a superposition of encoded graph states\n"


class TestFamilyAndSimulate:
    def test_family_output(self, capsys):
        code, doc = run_json(capsys, ["family", "--family", "cycle", "--n", "5"])
        assert code == 0
        assert doc["graph6"] == "Dhc"
        assert doc["edgelist"] == "5\n0 1\n0 4\n1 2\n2 3\n3 4\n"

    def test_family_random_deterministic(self, capsys):
        argv = ["family", "--family", "random", "--n", "8", "--p", "0.5", "--seed", "7"]
        code1 = cli.run(argv)
        out1 = capsys.readouterr().out
        code2 = cli.run(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0 and out1 == out2

    def test_simulate_accessing(self, capsys, c5_file):
        code, doc = run_json(capsys, ["simulate", "--graph", c5_file, "--B", "0,1,2"])
        assert code == 0
        assert doc["oracle_verdict"] == "Accessing" and doc["overlap"] < 1e-10

    def test_simulate_blind(self, capsys, c5_file):
        code, doc = run_json(capsys, ["simulate", "--graph", c5_file, "--B", "0,1"])
        assert code == 1
        assert doc["oracle_verdict"] == "Blind" and doc["trace_distance"] < 1e-10

    def test_simulate_qubit_limit(self):
        code = cli.run(["simulate", "--family", "cycle", "--n", "13", "--B", "0,1"])
        assert code == 3


class TestProtocolRun:
    @pytest.mark.parametrize(
        "n, code, err",
        [
            # no qubit cap: k = 3 is refused on a 13-cycle because k* = 11
            (13, cli.EXIT_USAGE, "error: some size-3 coalition cannot reconstruct on this graph\n"),
            (27, cli.EXIT_RESOURCE, "resource limit: n=27 exceeds enumeration limit 26\n"),
        ],
        ids=["cycle13", "cycle27"],
    )
    def test_threshold_cap_not_qubit_cap(self, capsys, n, code, err):
        argv = ["protocol-run", "--family", "cycle", "--n", str(n), "--k", "3", "--coalition", "0,1,2"]
        assert cli.run(argv) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "cycle", "--n", "13", "--k", "11", "--coalition", ",".join(map(str, range(11)))],
            ["--family", "c5pow", "--i", "2", "--k", "17", "--coalition", ",".join(map(str, range(17)))],
        ],
        ids=["cycle13", "c5pow2"],
    )
    def test_past_the_qubit_cap_recovers_exactly(self, capsys, argv):
        code, doc = run_json(capsys, ["protocol-run", *argv, "--secret", "-0.6,0.8"])
        assert code == cli.EXIT_OK
        assert doc["recovered"] == [-0.6, 0.0, 0.8, 0.0] and doc["fidelity"] == 1.0

    @pytest.mark.parametrize("seed", [0, 4])  # pads (1, 1) and (0, 1)
    def test_no_negative_zero(self, capsys, seed):
        # the pad signs beta = 0 to -0.0, and undoing it gives -0.0 back
        argv = ["--json", "protocol-run", "--family", "cycle", "--n", "5", "--k", "3", "--coalition", "0,1,2"]
        assert cli.run(argv + ["--seed", str(seed), "--secret", "1,0"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["pad"][1] == 1 and doc["recovered"] == [1.0, 0.0, 0.0, 0.0]
        assert "-0.0" not in out

    def test_happy_path(self, capsys, c5_file):
        code, doc = run_json(
            capsys,
            [
                "protocol-run",
                "--graph",
                c5_file,
                "--k",
                "3",
                "--coalition",
                "0,1,2",
                "--seed",
                "4",
            ],
        )
        assert code == 0
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["pad"] in ([0, 0], [0, 1], [1, 0], [1, 1])

    def test_insufficient_coalition(self, capsys, c5_file):
        code, doc = run_json(
            capsys,
            ["protocol-run", "--graph", c5_file, "--k", "3", "--coalition", "0,1"],
        )
        assert code == 1 and "error" in doc

    def test_byte_identical_output(self, capsys, c5_file):
        argv = [
            "protocol-run",
            "--graph",
            c5_file,
            "--k",
            "3",
            "--c",
            "2",
            "--coalition",
            "0,2,3,5,6",
            "--seed",
            "12",
        ]
        cli.run(argv)
        out1 = capsys.readouterr().out
        cli.run(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2 and json.loads(out1)["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_negative_secret_as_separate_token(self, capsys):
        argv = ["--json", "protocol-run", "--family", "cycle", "--n", "5", "--k", "3"]
        argv += ["--coalition", "0,1,2", "--seed", "3"]
        assert cli.run(argv + ["--secret=-0.6,0.8"]) == cli.EXIT_OK
        joined = capsys.readouterr()
        assert cli.run(argv + ["--secret", "-0.6,0.8"]) == cli.EXIT_OK
        assert capsys.readouterr() == joined
        assert json.loads(joined.out)["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_bare_trailing_secret_is_usage_error(self, capsys):
        argv = ["protocol-run", "--family", "cycle", "--n", "5", "--k", "3"]
        assert cli.run(argv + ["--coalition", "0,1,2", "--secret"]) == cli.EXIT_USAGE
        assert "argument --secret: expected one argument" in capsys.readouterr().err

    def test_empty_coalition_below_threshold(self, capsys):
        argv = ["protocol-run", "--family", "cycle", "--n", "5", "--k", "3", "--coalition", ""]
        code, doc = run_json(capsys, argv)
        assert code == cli.EXIT_NEGATIVE
        assert doc["coalition"] == [] and doc["error"] == "coalition of 0 below threshold 3"

    @pytest.mark.parametrize("secret", ["nan,1", "1,nan", "1e155,0", "0,1e200", "1e308,1e308"])
    def test_nan_secret_refused(self, capsys, secret):
        # NaN passes no "> tol" test; it must not reach the JSON as a NaN fidelity,
        # and a square past the float range is refused, not an OverflowError
        argv = ["--json", "protocol-run", "--family", "cycle", "--n", "5", "--k", "3"]
        code = cli.run(argv + ["--coalition", "0,1,2", "--secret", secret])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err == "error: secret amplitudes are not normalized\n"


class TestSearch:
    def test_n4(self, capsys):
        code, doc = run_json(capsys, ["search", "--n", "4"])
        assert code == 0
        assert doc["graphs"] == 64
        assert doc["min_k_star"] == 3  # no-cloning forbids k <= 2 on 4 players
        assert doc["attainer_count"] == len(doc["attainers_graph6"])

    def test_resource_cap(self, capsys):
        assert cli.run(["search", "--n", "8"]) == 3

    def test_n7_refused_before_enumerating(self, capsys, monkeypatch):
        # 2^21 graphs at n = 7 and 2^66 at n = 12: refused before any
        # array or threshold
        monkeypatch.setattr(access, "qstar_threshold", None)
        monkeypatch.setattr(access, "_distance", None)
        monkeypatch.setattr(access, "_edge_bit", None)
        monkeypatch.setattr("numpy.arange", None)
        for n in ("7", "12"):
            assert cli.run(["search", "--n", n]) == cli.EXIT_RESOURCE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"resource limit: n={n} exceeds exhaustive search limit 6\n"


class TestErrorsAndFormats:
    def test_unreadable_file(self, capsys):
        code = cli.run(["classify", "--graph", "/nonexistent.el", "--B", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_family_vertex_cap(self, capsys):
        assert cli.run(["family", "--family", "complete", "--n", "3126"]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource limit: n=3126 exceeds generated-graph cap 3125\n"

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("2\n0 0\n")
        code = cli.run(["classify", "--graph", str(bad), "--B", "0"])
        assert code == 2
        assert "self-loop" in capsys.readouterr().err

    def test_graph_and_family_exclusive(self, capsys, tmp_path):
        # one graph source per call: neither option may silently win
        path = tmp_path / "p3.el"
        path.write_text("3\n0 1\n1 2\n")
        argv = ["--json", "threshold", "--graph", str(path), "--family", "cycle", "--n", "5"]
        assert cli.run(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --family: not allowed with argument --graph" in captured.err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["family", "--family", "path", "--n", "3", "--p", "2"], "--family path does not read --p"),
            (["threshold", "--graph", "P3", "--n", "9"], "--graph does not read --n"),
            (["family", "--family", "c5pow", "--i", "1", "--n", "9"], "--family c5pow does not read --n"),
            (["family", "--family", "cycle", "--n", "5", "--i", "3"], "--family cycle does not read --i"),
            (
                ["family", "--family", "random", "--n", "5", "--p", "0.5", "--i", "1"],
                "--family random does not read --i",
            ),
            (["simulate", "--graph", "P3", "--p", "0.5", "--i", "2", "--B", "0"], "--graph does not read --p, --i"),
            (["family", "--family", "cycle", "--n", "3", "--format", "graph6"], "--family cycle does not read --format"),
            (
                ["classify", "--family", "c5pow", "--i", "1", "--format", "edgelist", "--B", "0"],
                "--family c5pow does not read --format",
            ),
            (
                ["family", "--family", "random", "--n", "5", "--p", "0.5", "--i", "1", "--format", "graph6"],
                "--family random does not read --i, --format",
            ),
        ],
    )
    def test_unread_graph_option_refused(self, capsys, tmp_path, argv, err):
        # an option the graph source would ignore is a usage error, not a silent no-op
        path = tmp_path / "p3.el"
        path.write_text("3\n0 1\n1 2\n")
        argv = ["--json", *(str(path) if tok == "P3" else tok for tok in argv)]
        assert cli.run(argv) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_usage_error(self, capsys):
        assert cli.run(["classify", "--B", "0,1", "--bogus"]) == 2

    def test_parser_shared_across_calls(self, capsys, c5_file):
        # one parser serves every call in a process; no call may leak into the next
        bad = ["classify", "--B", "0,1", "--bogus"]
        good = ["classify", "--graph", c5_file, "--B", "0,1,2"]
        calls = []
        for argv in (bad, good, good, bad):
            code = cli.run(argv)
            calls.append((code, capsys.readouterr()))
        assert calls[0][0] == 2 and "--bogus" in calls[0][1].err
        assert calls[1][0] == 0 and json.loads(calls[1][1].out)["q_verdict"] == "QAccessing"
        assert calls[1] == calls[2] and calls[0] == calls[3]

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["threshold", "--family", "cycle", "--n", "5", "--A", "x"], "--A"),
            (["classify", "--family", "cycle", "--n", "5", "--B", "0,x"], "--B"),
            (
                ["protocol-run", "--family", "cycle", "--n", "5", "--k", "3", "--coalition", "0,x"],
                "--coalition",
            ),
        ],
    )
    def test_non_integer_set(self, capsys, argv, what):
        assert cli.run(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what}: expected comma-separated integers\n"

    def test_missing_required(self, capsys):
        assert cli.run(["classify", "--family", "cycle", "--n", "5"]) == 2

    def test_graph6_input(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(serialize_graph(family("cycle", 5), "graph6"))
        code, doc = run_json(
            capsys,
            ["classify", "--graph", str(path), "--format", "graph6", "--B", "0,1,2"],
        )
        assert code == 0 and doc["q_verdict"] == "QAccessing"

    def test_compact_json_flag(self, capsys):
        code = cli.run(["--json", "product", "--n1", "5", "--k1", "3", "--n2", "5", "--k2", "3"])
        out = capsys.readouterr().out
        assert code == 0 and out.count("\n") == 1 and json.loads(out)["k"] == 17

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["bound", "--n", "5", "--k", "3"], cli.EXIT_OK),
            (["classify", "--family", "cycle", "--n", "5", "--B", "0,1"], cli.EXIT_NEGATIVE),
        ],
    )
    def test_closed_stdout_pipe(self, argv, code):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "graphqss.cli", "--json", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, "")

    def test_console_entry_point(self, c5_file):
        proc = subprocess.run(
            [sys.executable, "-m", "graphqss.cli", "classify", "--graph", c5_file, "--B", "0,1,2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["q_verdict"] == "QAccessing"
