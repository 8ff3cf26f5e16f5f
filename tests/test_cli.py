"""End-to-end command-line behaviour, run in process via main(argv)."""

import io
import json

import pytest

from ribbonforge import build_B, equivalent, from_words, parse_arp, serialize_arp
from ribbonforge.cli import main

B1 = "a a\n"
TORUS = "a b a b\n"
TWISTED = "a a'\n"
CURL_PD = "X(1,2,2,1)\n"


@pytest.fixture
def arp(tmp_path):
    def write(text, name="g.arp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_info(arp, capsys):
    code, payload = run_json(capsys, "info", arp(TORUS))
    assert code == 0
    assert payload == {
        "vertices": 1,
        "edges": 2,
        "boundary": 1,
        "components": 1,
        "euler_genus": 2,
        "genus": 1,
        "orientable": True,
    }


def test_transforms_compose_as_arp(arp, capsys):
    code, out = run(capsys, "delete", arp(TORUS), "-e", "a")
    assert code == 0
    assert parse_arp(out).words() == [["b", "b"]]
    code, out = run(capsys, "contract", arp(B1), "-e", "a")
    assert code == 0
    assert parse_arp(out).vertex_count == 2

    code, out = run(capsys, "dual", arp(TORUS), "-e", "a,b")
    assert code == 0
    assert equivalent(parse_arp(out), from_words([["a", "b", "a", "b"]]))
    code, out_all = run(capsys, "dual", arp(TORUS), "--all")
    assert code == 0
    assert parse_arp(out_all) == parse_arp(out)


def test_empty_output_is_commented(arp, capsys):
    code, out = run(capsys, "dual", arp("# no vertices\n"), "--all")
    assert code == 0
    assert out.strip() == "# empty" and parse_arp(out).vertex_count == 0
    # vertices survive edge removal: deleting the lone edge keeps both discs
    code, out = run(capsys, "delete", arp("a\na\n", "edge.arp"), "-e", "a")
    assert code == 0 and parse_arp(out).words() == [[], []]


def test_stdin_dash(arp, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(B1))
    code, payload = run_json(capsys, "info", "-")
    assert code == 0 and payload["edges"] == 1


def test_pipe_example(arp, capsys, monkeypatch):
    # dual at one loop of the torus bouquet, piped back in: now plane
    code, out = run(capsys, "dual", arp(TORUS), "-e", "a")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, payload = run_json(capsys, "info", "-")
    assert code == 0 and payload["euler_genus"] == 0


def test_canonical_and_equivalent(arp, capsys):
    code, first = run_json(capsys, "canonical", arp(TORUS))
    code2, second = run_json(capsys, "canonical", arp("b a b a\n", "h.arp"))
    assert code == code2 == 0 and first == second
    assert isinstance(first["key"], str)

    code, payload = run_json(
        capsys, "equivalent", arp(TORUS), arp("b a b a\n", "h.arp")
    )
    assert code == 0 and payload == {"equivalent": True}
    code, payload = run_json(capsys, "equivalent", arp(TORUS), arp(B1, "i.arp"))
    assert code == 1 and payload == {"equivalent": False}


def test_has_minor_named_and_file_targets(arp, capsys):
    b5 = arp(serialize_arp(build_B(5)) + "\n", "b5.arp")
    code, payload = run_json(capsys, "has-minor", b5, "--target", "b3")
    assert code == 0 and payload["found"]
    assert all(isinstance(step, list) and len(step) == 2 for step in payload["script"])

    code, payload = run_json(capsys, "has-minor", arp(B1), "--target", "bbar1")
    assert code == 1 and payload == {"found": False, "script": None}

    target_file = arp(B1, "target.arp")
    code, payload = run_json(
        capsys, "has-minor", arp(TORUS), "--target", target_file
    )
    assert code == 0 and payload["found"]


def test_scan(arp, capsys):
    code, payload = run_json(capsys, "scan", arp(TWISTED))
    assert code == 0
    assert set(payload) == {"bbar1", "b3", "theta_t"}
    assert payload["bbar1"] == [] and payload["b3"] is None

    code, payload = run_json(capsys, "scan", arp(TORUS))
    assert code == 0 and payload == {"bbar1": None, "b3": None, "theta_t": None}


def test_interlacement(arp, capsys):
    code, payload = run_json(capsys, "interlacement", arp(TORUS))
    assert code == 0
    assert payload == {"vertices": ["a", "b"], "edges": [["a", "b"]]}
    code, payload = run_json(capsys, "interlacement", arp("a\na\n", "e.arp"))
    assert code == 2 and "error" in payload


def test_represents_link_exit_codes_and_flags(arp, capsys):
    code, payload = run_json(capsys, "represents-link", arp(TORUS))
    assert code == 0
    assert payload["representable"] and payload["witness"] is None

    code, payload = run_json(capsys, "represents-link", arp(TORUS), "--witness")
    assert code == 0 and payload["witness"] == ["a"]

    b3 = arp(serialize_arp(build_B(3)) + "\n", "b3.arp")
    code, payload = run_json(capsys, "represents-link", b3)
    assert code == 1
    assert not payload["representable"] and payload["certificate"] is None
    assert payload["odd_cycle"] == ["e1", "e2", "e3"]

    code, payload = run_json(capsys, "represents-link", b3, "--certificate")
    assert code == 1 and payload["certificate"]["target"] == "b3"


def test_from_pd(arp, capsys):
    pd = arp(CURL_PD, "curl.pd")
    code, out = run(capsys, "from-pd", pd)
    assert code == 0 and parse_arp(out).words() == [["1", "1"]]
    code, out = run(capsys, "from-pd", pd, "--smoothing", "B")
    assert code == 0 and parse_arp(out).vertex_count == 2


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "-n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# total 5"
    chunks = [
        c for c in "\n".join(lines[:-1]).split("\n\n") if c.strip()
    ]
    assert len(chunks) == 5  # every class at <= 1 edge, .arp record each
    parsed = [parse_arp(c) for c in chunks]
    assert sorted(g.edge_count for g in parsed) == [0, 0, 1, 1, 1]

    code, out = run(capsys, "enumerate", "-n", "2", "--connected", "--bouquets")
    assert code == 0 and out.splitlines()[-1] == "# total 9"


def test_input_errors_exit_2(arp, capsys):
    code, payload = run_json(capsys, "info", arp("a\n", "bad.arp"))
    assert code == 2 and payload["error"]["type"] == "LabelCountError"
    code, payload = run_json(capsys, "info", "/nonexistent/file.arp")
    assert code == 2 and payload["error"]["type"] == "ParseError"
    code, payload = run_json(capsys, "delete", arp(B1), "-e", "zz")
    assert code == 2 and payload["error"]["type"] == "UnknownLabel"
    code, payload = run_json(capsys, "has-minor", arp(B1), "--target", "nope")
    assert code == 2
    code, payload = run_json(capsys, "frobnicate", arp(B1))
    assert code == 2
    code, payload = run_json(capsys, "verify", "--criteria", "1,99")
    assert code == 2 and "unknown criteria" in payload["error"]["message"]
    code, payload = run_json(capsys, "verify", "--criteria", "zap")
    assert code == 2


def test_size_bound_exit_2(arp, capsys):
    big = from_words([[f"e{i}", f"e{i}"] for i in range(12)])
    path = arp(serialize_arp(big) + "\n", "big.arp")
    code, payload = run_json(capsys, "canonical", path)
    assert code == 2 and payload["error"]["type"] == "SizeBoundExceeded"
    message = payload["error"]["message"]
    assert "12 edges" in message and "bound 8" in message
    assert "--max-edges" in message and "RIBBONFORGE_MAX_EDGES" in message
    code, payload = run_json(capsys, "canonical", path, "--max-edges", "12")
    assert code == 0 and "key" in payload


@pytest.mark.parametrize("raw", ["twelve", "0", "-3", ""])
def test_bad_max_edges_environment_exits_2(arp, capsys, monkeypatch, raw):
    monkeypatch.setenv("RIBBONFORGE_MAX_EDGES", raw)
    code, payload = run_json(capsys, "canonical", arp(TORUS))
    assert code == 2 and payload["error"]["type"] == "RibbonError"
    assert "RIBBONFORGE_MAX_EDGES" in payload["error"]["message"]
    monkeypatch.setenv("RIBBONFORGE_MAX_EDGES", "12")
    assert run_json(capsys, "canonical", arp(TORUS))[0] == 0


def test_represents_link_takes_no_size_bound(arp, capsys, monkeypatch):
    path = arp(serialize_arp(build_B(3)) + "\n", "b3.arp")
    monkeypatch.setenv("RIBBONFORGE_MAX_EDGES", "2")
    code, payload = run_json(capsys, "represents-link", path, "--certificate")
    assert code == 1 and payload["certificate"]["target"] == "b3"
    code, payload = run_json(
        capsys, "represents-link", path, "--certificate", "--max-edges", "2"
    )
    assert code == 2 and payload["error"]["type"] == "ParseError"


def test_verify_subset(capsys):
    code, payload = run_json(capsys, "verify", "--criteria", "3,6")
    assert code == 0
    assert payload["passed"] is True
    assert [c["number"] for c in payload["criteria"]] == [3, 6]
    assert all(
        set(c) == {"number", "name", "passed", "details", "seconds"}
        for c in payload["criteria"]
    )
    code, out = run(capsys, "verify", "--criteria", "6", "--pretty")
    assert code == 0
    assert out.startswith("criterion") and "[PASS]" in out


def test_pretty_flag_indents(arp, capsys):
    _, compact = run(capsys, "info", arp(B1))
    _, pretty = run(capsys, "info", arp(B1), "--pretty")
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact
