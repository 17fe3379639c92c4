import gc
import io as _stdio
import random
from itertools import accumulate

import pytest

from motifclust import ClusterReport, InputError, ParseError, parse_arb_simplices, parse_edge_list, read_report, write_report
import motifclust.io as mio
from motifclust.io import write_benchmark_csv
from motifclust.testing import random_hypergraph, write_edge_list
from references import reference_parse_arb_simplices, reference_parse_edge_list


def parse_text(text):
    return parse_edge_list(_stdio.StringIO(text))


def test_parse_edge_list_basic():
    result = parse_text("0 1 2\n0 1\n")
    H = result.hypergraph
    assert H.n == 3 and H.num_edges == 2
    members = {tuple(result.labels[v] for v in mem) for mem in H.members}
    assert members == {("0", "1", "2"), ("0", "1")}


def test_parse_edge_list_merges_duplicates():
    result = parse_text("a b\na b\n")
    H = result.hypergraph
    assert H.num_edges == 1
    assert H.edge(0).members == (0, 1)
    assert result.merged_duplicates == 1


def test_parse_edge_list_drops_small_and_errors_when_empty():
    with pytest.raises(InputError):
        parse_text("x\n")
    result = parse_text("x\na b\n")
    assert result.dropped_small == 1 and result.hypergraph.num_edges == 1


def test_parse_pauses_the_collector_and_restores_its_state(monkeypatch, tmp_path):
    # both parsers tokenise, cut the tokens into hyperedges and build the
    # hypergraph with the cyclic collector paused; afterwards it is on or
    # off as the caller left it, also when the parse fails
    seen = []

    def spy(name):
        real = getattr(mio, name)

        def call(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return real(*args, **kwargs)

        monkeypatch.setattr(mio, name, call)

    for name in ("_tokens", "_build_result", "Hypergraph"):
        spy(name)
    nverts, simplices = _arb_files(tmp_path, "2\n3\n", "1 2\n2 3 4\n")
    bad_nverts, bad_simplices = _arb_files(tmp_path / "x", "2\n", "1 x\n")
    was = gc.isenabled()
    try:
        for caller_collects in (True, False):
            if caller_collects:
                gc.enable()
            else:
                gc.disable()
            assert parse_text("a b\nb c d\n").hypergraph.num_edges == 2
            assert gc.isenabled() is caller_collects
            assert parse_arb_simplices(nverts, simplices).hypergraph.num_edges == 2
            assert gc.isenabled() is caller_collects
            with pytest.raises(InputError, match="no usable hyperedges"):
                parse_text("x\n")
            assert gc.isenabled() is caller_collects
            with pytest.raises(ParseError, match="expected an integer"):
                parse_arb_simplices(bad_nverts, bad_simplices)
            assert gc.isenabled() is caller_collects
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    assert {name for name, _ in seen} == {"_tokens", "_build_result", "Hypergraph"}
    assert [name for name, enabled in seen if enabled] == []


def test_parse_edge_list_comments_commas_and_inline_dedup():
    result = parse_text("# header\n a,b , c\nb b a\n")
    H = result.hypergraph
    assert H.num_edges == 2
    members = {tuple(sorted(result.labels[v] for v in mem)) for mem in H.members}
    assert members == {("a", "b", "c"), ("a", "b")}


def test_parse_edge_list_order_insensitive_cleaning():
    lines = ["a b c", "c d", "a b", "a b c"]
    rng = random.Random(0)
    baseline = None
    for _ in range(5):
        rng.shuffle(lines)
        result = parse_text("\n".join(lines) + "\n")
        members = sorted(
            tuple(sorted(result.labels[v] for v in mem))
            for mem in result.hypergraph.members
        )
        shape = (members, result.merged_duplicates)
        if baseline is None:
            baseline = shape
        assert shape == baseline
    assert baseline == ([("a", "b"), ("a", "b", "c"), ("c", "d")], 1)


def test_parse_edge_list_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe nonsense")
    with pytest.raises(ParseError):
        parse_edge_list(path)


def test_parse_arb_simplices(tmp_path):
    nverts = tmp_path / "x-nverts.txt"
    simplices = tmp_path / "x-simplices.txt"
    nverts.write_text("3\n2\n")
    simplices.write_text("1\n2\n3\n1\n2\n")
    result = parse_arb_simplices(nverts, simplices)
    H = result.hypergraph
    assert H.n == 3 and H.num_edges == 2
    members = {tuple(sorted(result.labels[v] for v in mem)) for mem in H.members}
    assert members == {(1, 2, 3), (1, 2)}


@pytest.mark.parametrize("unreadable", ["nverts", "simplices"])
def test_parse_arb_reports_a_file_that_exists_but_cannot_be_read(tmp_path, unreadable):
    # a directory under the file's name passes the existence check, so the
    # read itself must fail as a ParseError that names the path
    paths = {kind: tmp_path / f"x-{kind}.txt" for kind in ("nverts", "simplices")}
    paths["nverts"].write_text("2\n")
    paths["simplices"].write_text("1\n2\n")
    paths[unreadable].unlink()
    paths[unreadable].mkdir()
    with pytest.raises(ParseError, match=f"cannot read: .*x-{unreadable}.txt"):
        parse_arb_simplices(paths["nverts"], paths["simplices"])


def test_parse_arb_length_mismatch(tmp_path):
    nverts = tmp_path / "y-nverts.txt"
    simplices = tmp_path / "y-simplices.txt"
    nverts.write_text("2\n")
    simplices.write_text("1\n2\n3\n")
    with pytest.raises(ParseError) as err:
        parse_arb_simplices(nverts, simplices)
    assert "2" in str(err.value) and "3" in str(err.value)


def test_parse_arb_empty(tmp_path):
    nverts = tmp_path / "z-nverts.txt"
    simplices = tmp_path / "z-simplices.txt"
    nverts.write_text("")
    simplices.write_text("")
    with pytest.raises(InputError):
        parse_arb_simplices(nverts, simplices)


def _arb_files(tmp_path, nverts_text, simplices_text):
    tmp_path.mkdir(parents=True, exist_ok=True)
    nverts = tmp_path / "d-nverts.txt"
    simplices = tmp_path / "d-simplices.txt"
    nverts.write_text(nverts_text)
    simplices.write_text(simplices_text)
    return nverts, simplices


def test_parse_arb_rejects_a_negative_size(tmp_path):
    # the sizes sum to 4 = the entry count, and the -2 chunk would move the
    # chunk start back, making a phantom hyperedge {3, 4}
    nverts, simplices = _arb_files(tmp_path, "4\n-2\n2\n", "1 2 3 4")
    with pytest.raises(ParseError) as err:
        parse_arb_simplices(nverts, simplices)
    assert str(err.value) == f"negative hyperedge size -2 [{nverts}:2]"


def test_parse_arb_drops_a_size_zero_hyperedge(tmp_path):
    result = parse_arb_simplices(*_arb_files(tmp_path, "0\n2\n", "1 2"))
    assert result.dropped_small == 1 and result.hypergraph.num_edges == 1


@pytest.mark.parametrize("bad_file", ["nverts", "simplices"])
def test_parse_arb_names_the_bad_token_and_its_line(tmp_path, bad_file):
    good = {"nverts": "2,2\n\n2\n", "simplices": "1,2\n\n3,4 5,6\n"}
    bad = {"nverts": "2,2\n\n2,x\n", "simplices": "1,2\n\n3,x 5,6\n"}
    texts = {**good, bad_file: bad[bad_file]}
    nverts, simplices = _arb_files(tmp_path, texts["nverts"], texts["simplices"])
    path = {"nverts": nverts, "simplices": simplices}[bad_file]
    with pytest.raises(ParseError) as err:
        parse_arb_simplices(nverts, simplices)
    assert str(err.value) == f"expected an integer, got 'x' [{path}:3]"
    assert err.value.__context__ is None  # the error of the fast pass is not chained


def test_parse_arb_reports_bad_utf8_as_the_reference_does(tmp_path):
    # the byte sits past the first 8 KiB, where a whole-file decode and a
    # line-by-line decode report different positions
    nverts, simplices = _arb_files(tmp_path, "", "1 2\n" * 6002)
    for data in (b"2\n" * 6000 + b"\xff\n2\n", b"2\nx\n" + b"2\n" * 6000 + b"\xff"):
        nverts.write_bytes(data)
        assert _outcome(parse_arb_simplices, nverts, simplices) == _outcome(
            reference_parse_arb_simplices, nverts, simplices
        )


BOM = "\ufeff"  # a UTF-8 byte-order mark, as some editors write it


def test_parse_edge_list_ignores_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("a b c\nb c d\nc d a\n", encoding="utf-8")
    marked.write_text(BOM + "a b c\nb c d\nc d a\n", encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert _outcome(parse_edge_list, marked) == _outcome(parse_edge_list, plain)
    assert parse_edge_list(marked).labels == ["a", "b", "c", "d"]


def test_parse_arb_ignores_a_byte_order_mark(tmp_path):
    plain = _arb_files(tmp_path / "plain", "3\n2\n", "1 2 3\n3 4\n")
    marked = _arb_files(tmp_path / "marked", BOM + "3\n2\n", BOM + "1 2 3\n3 4\n")
    assert _outcome(parse_arb_simplices, *marked) == _outcome(parse_arb_simplices, *plain)
    assert parse_arb_simplices(*marked).labels == [1, 2, 3, 4]


@pytest.mark.parametrize("bad_file", ["nverts", "simplices"])
def test_parse_arb_names_a_bad_token_after_a_byte_order_mark(tmp_path, bad_file):
    texts = {"nverts": BOM + "2\n2\n", "simplices": BOM + "1 2\n3 4\n"}
    texts[bad_file] = BOM + "x " + texts[bad_file][1:]
    nverts, simplices = _arb_files(tmp_path, texts["nverts"], texts["simplices"])
    path = {"nverts": nverts, "simplices": simplices}[bad_file]
    with pytest.raises(ParseError) as err:
        parse_arb_simplices(nverts, simplices)
    assert str(err.value) == f"expected an integer, got 'x' [{path}:1]"


# separators the reference splits on: whitespace (ASCII and not), commas,
# and line ends of each style
_SEPARATORS = [" ", "  ", "\t", ",", ", ", " ,\t", "\n", "\r\n", "\r", "\n\n", "\u00a0", "\u2003", "\x0c", "\x1c"]


def _spell(rng, value):
    """Mostly the plain spelling of an int; sometimes another one of it, such
    as +7, 07 or 0_7."""
    if rng.random() < 0.95:
        return str(value)
    sign = "-" if value < 0 else rng.choice(["", "+"])
    return sign + rng.choice(["0", "00", "0_"]) + str(abs(value))


def _random_arb_texts(rng):
    sizes = [rng.randint(0, 5) for _ in range(rng.randint(0, 12))]
    pool = [rng.randint(-4, 9) for _ in range(rng.randint(1, 8))]
    entries = [_spell(rng, rng.choice(pool)) for _ in range(sum(sizes))]
    size_tokens = [str(k) for k in sizes]
    if rng.random() < 0.1:  # off-by-one entry count
        entries = entries[:-1] if entries and rng.random() < 0.5 else entries + ["1"]
    for tokens in (size_tokens, entries):
        if tokens and rng.random() < 0.1:  # a token the reference rejects or reads
            tokens[rng.randrange(len(tokens))] = rng.choice(["x", "1.5", "", "+2", "0_1", "-1"])

    def join(tokens):
        text = "".join(t + rng.choice(_SEPARATORS) for t in tokens)
        return rng.choice(["", "\n", ", "]) + text

    return join(size_tokens), join(entries)


def _random_edge_list_text(rng):
    pool = [rng.choice("abcdefgh") + rng.choice(["", "1", "-", "é"]) for _ in range(6)]
    pool += [str(rng.randint(-3, 3)) for _ in range(2)]
    lines = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(["", "   ", ",", " \t"]))
        elif kind < 0.2:
            lines.append(rng.choice(["#", "  # a b", "#a,b", ",# a b"]))  # the last is no comment
        else:
            members = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            seps = [rng.choice([" ", ",", "\t", " , ", "\u00a0", "\x0b"]) for _ in members]
            lines.append(rng.choice(["", " ", ","]) + "".join(m + s for m, s in zip(members, seps)))
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)


def _outcome(parse, *args):
    try:
        result = parse(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))
    H = result.hypergraph
    return (
        result.labels,
        list(H.members),
        H._incidence,
        H.n,
        result.dropped_small,
        result.merged_duplicates,
    )


def _label_fates(chunks):
    """Whether some label first appears in a dropped hyperedge and also in a
    kept one, and whether some label appears only in dropped ones."""
    seen, first_dropped, kept = set(), set(), set()
    for chunk in chunks:
        if len(set(chunk)) < 2:
            first_dropped.update(set(chunk) - seen)
        else:
            kept.update(chunk)
        seen.update(chunk)
    return bool(first_dropped & kept), bool(first_dropped - kept)


def _count(compared, expected, chunks):
    compared["errors"] += expected[0] == "error"
    if expected[0] != "error":
        compared["drops"] += expected[4] > 0
        compared["merges"] += expected[5] > 0
        first_dropped, only_dropped = _label_fates(chunks)
        compared["first seen in a dropped hyperedge"] += first_dropped
        compared["seen only in dropped hyperedges"] += only_dropped


def test_parsers_match_the_line_by_line_reference_randomized(tmp_path):
    # a label whose first appearance is in a dropped hyperedge takes its id
    # from its first kept appearance, and one seen only in dropped
    # hyperedges gets none; both send the parser to its renumbering path.
    # An ARB label may come in two spellings (2 and +2) that name one label
    rng = random.Random(2026)
    nverts, simplices = tmp_path / "r-nverts.txt", tmp_path / "r-simplices.txt"
    edge_list = tmp_path / "r.txt"
    compared = dict.fromkeys(
        ["arb", "edge list", "errors", "drops", "merges", "first seen in a dropped hyperedge",
         "seen only in dropped hyperedges", "two spellings"],
        0,
    )
    while compared["arb"] < 300:
        nverts_text, simplices_text = _random_arb_texts(rng)
        if any(t.startswith("-") for t in nverts_text.replace(",", " ").split()):
            continue  # a negative size, which only the parser rejects
        nverts.write_text(nverts_text, encoding="utf-8", newline="")
        simplices.write_text(simplices_text, encoding="utf-8", newline="")
        expected = _outcome(reference_parse_arb_simplices, nverts, simplices)
        assert _outcome(parse_arb_simplices, nverts, simplices) == expected
        compared["arb"] += 1
        chunks = []
        if expected[0] != "error":
            tokens = mio._tokens(simplices_text)
            entries = list(map(int, tokens))
            starts = list(accumulate(map(int, mio._tokens(nverts_text)), initial=0))
            chunks = [entries[i:j] for i, j in zip(starts, starts[1:])]
            compared["two spellings"] += len(set(entries)) < len(set(tokens))
        _count(compared, expected, chunks)
    while compared["edge list"] < 300:
        text = _random_edge_list_text(rng)
        edge_list.write_text(text, encoding="utf-8", newline="")
        expected = _outcome(reference_parse_edge_list, edge_list)
        assert _outcome(parse_edge_list, edge_list) == expected
        compared["edge list"] += 1
        lines = (line.strip() for line in text.splitlines())
        _count(compared, expected, [mio._tokens(t) for t in lines if t and t[0] != "#"])
    # the draw reaches every branch: errors, drops, merges and renumbering alike
    assert min(compared.values()) >= 30, compared


def test_report_round_trip(tmp_path):
    report = ClusterReport(
        dataset="toy",
        method="bfs",
        motif="III",
        cluster=["a", "b", "v"],
        cluster_size=3,
        ball_size=5,
        phi=0.5,
        phi_exact="1/2",
        motif_cut=1,
        cluster_motif_degree=4,
        volume_used=2,
        volume_side="complement",
        timings={"total": 0.01},
        rng_seed=7,
        params={"alpha": 3},
    )
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report
    # canonical: sorted keys, trailing newline, 0.5 serialized exactly
    import json

    text = path.read_text()
    assert text.endswith("\n") and '"phi": 0.5' in text
    assert text.strip() == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False)


def test_read_report_rejects_malformed_input(tmp_path):
    report = ClusterReport(dataset="d", method="core", motif="VI")
    stale = report.to_json().replace('"cluster"', '"assumption": "unverified", "cluster"')
    for text in (stale, "[1, 2]", "not json {"):
        with pytest.raises(ParseError):
            read_report(_stdio.StringIO(text))
    path = tmp_path / "bad.json"
    path.write_text("[]")
    with pytest.raises(ParseError) as err:
        read_report(path)
    assert str(path) in str(err.value)


def test_report_with_zero_timings_and_canonical_strip():
    report = ClusterReport(dataset="d", method="core", motif="VI", timings={})
    assert read_report(_stdio.StringIO(report.to_json())) == report
    a = ClusterReport(dataset="d", method="core", motif="VI", timings={"total": 1.25})
    b = ClusterReport(dataset="d", method="core", motif="VI", timings={"total": 9.75})
    assert a.canonical_json() == b.canonical_json()
    assert a.to_json() != b.to_json()


def test_edge_list_writer_round_trip(tmp_path):
    rng = random.Random(19)
    H = random_hypergraph(rng, 9, 0.3, 0.1)
    labels = [f"n{v}" for v in range(H.n)]
    path = tmp_path / "dump.txt"
    write_edge_list(H, labels, path)
    back = parse_edge_list(path)
    original = sorted(tuple(sorted(labels[v] for v in mem)) for mem in H.members)
    parsed = sorted(
        tuple(sorted(back.labels[v] for v in mem)) for mem in back.hypergraph.members
    )
    assert original == parsed


def test_benchmark_csv(tmp_path):
    rows = [
        {"graph": "toy", "method": "core", "phi": "0.100", "cluster_size": 4, "time_s": "0.010"},
        {"graph": "Overall", "method": "core", "phi": "0.100", "cluster_size": "4.0", "time_s": ""},
    ]
    path = tmp_path / "bench.csv"
    write_benchmark_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "graph,method,phi,cluster_size,time_s"
    assert lines[1] == "toy,core,0.100,4,0.010"
