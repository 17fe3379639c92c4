"""Dataset ingestion (edge-list and ARB two-file formats), cleaning, and
structured result output.

Cleaning rules, applied identically by both parsers: repeated labels inside a
hyperedge are deduplicated, hyperedges with fewer than two distinct nodes are
dropped (counted), and duplicate hyperedges merge into one (counted). A
negative ARB size is a ParseError. Labels are mapped to dense ids in order of
first appearance in a kept hyperedge; the label list maps them back.
Input files are read as UTF-8, and a leading byte-order mark is ignored.

Where each check runs: each file is read and tokenised in one pass (a bad
token re-reads it line by line, only to name the line). Labels are mapped to
ids once over the whole token list. ``_build_result`` cuts the id list into
hyperedges and canonicalises each once; only when a hyperedge is dropped
does it renumber the kept ones. ``Hypergraph`` then checks every
member tuple once: at least two members, strictly increasing, within 0..n-1,
and no two alike. The cyclic garbage collector is paused from tokenising to
the built hypergraph. Reports serialize as canonical sorted-key JSON so
golden files are byte-stable.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress
from typing import NoReturn

from .core import Hypergraph
from .errors import InputError, ParseError

log = logging.getLogger(__name__)


@dataclass
class ParseResult:
    hypergraph: Hypergraph
    labels: list  # dense id -> original label
    dropped_small: int = 0  # hyperedges with < 2 distinct nodes
    merged_duplicates: int = 0  # lines merged into an existing hyperedge

    def label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, if it was running, and restore it.

    A parse makes a few container objects per hyperedge, none of them in a
    cycle, and the collector would otherwise rescan the growing heap many
    times.
    """
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _dense_ids(tokens: list) -> tuple[list, list[int]]:
    """The distinct tokens in order of first appearance, and each token's
    index among them."""
    labels = list(dict.fromkeys(tokens))
    return labels, list(map(dict(zip(labels, range(len(labels)))).__getitem__, tokens))


def _build_result(labels: list, ids: list[int], sizes, source: str) -> ParseResult:
    """Cut a flat id sequence into hyperedges of the given sizes and clean
    them into a ParseResult; ``labels[i]`` is the label of id i.

    Each hyperedge is a sorted slice of the id list, made once. Ids follow
    the first appearance of a label in a kept hyperedge, so a label that
    occurs only in dropped hyperedges gets none: when a hyperedge is
    dropped, the kept ones are renumbered by first appearance.
    ``Hypergraph`` validates each canonical member tuple once.
    """
    starts = list(accumulate(sizes, initial=0))
    keys = [tuple(sorted(set(ids[i:j]))) for i, j in zip(starts, starts[1:])]
    kept = [len(key) > 1 for key in keys]
    dropped = kept.count(False)
    if dropped:
        firsts = dict.fromkeys(
            chain.from_iterable(ids[i:j] for i, j in compress(zip(starts, starts[1:]), kept))
        )
        renumber = dict(zip(firsts, range(len(firsts)))).__getitem__
        labels = [labels[i] for i in firsts]
        keys = [tuple(sorted(map(renumber, key))) for key in compress(keys, kept)]
    unique = dict.fromkeys(keys)
    if not unique:
        raise InputError(f"no usable hyperedges in {source} after cleaning")
    merged = len(keys) - len(unique)
    if dropped:
        log.warning("%s: dropped %d hyperedges with < 2 distinct nodes", source, dropped)
    if merged:
        log.warning("%s: merged %d duplicate hyperedges", source, merged)
    return ParseResult(Hypergraph(len(labels), list(unique)), labels, dropped, merged)


def _tokens(text: str) -> list[str]:
    """Split on runs of whitespace and commas; empty tokens never occur."""
    return text.replace(",", " ").split()


def parse_edge_list(source) -> ParseResult:
    """One hyperedge per line; labels separated by whitespace or commas;
    '#'-prefixed lines are comments."""
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        lines = source.read().splitlines()
    else:
        name = str(source)
        try:
            with open(source, "r", encoding="utf-8-sig") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}", path=name) from exc
        except OSError as exc:
            raise ParseError(f"cannot read: {exc}", path=name) from exc
    with _collector_paused():
        texts = [line.strip() for line in lines]
        chunks = [_tokens(t) for t in texts if t and t[0] != "#"]
        labels, ids = _dense_ids(list(chain.from_iterable(chunks)))
        return _build_result(labels, ids, list(map(len, chunks)), name)


def _raise_first_bad_token(path: str, sizes: bool = False) -> NoReturn:
    """Re-read a file that failed to parse, line by line, and raise the
    ParseError that names its first bad token (with ``sizes``, a negative
    value is one) and that token's line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                for token in _tokens(line):
                    try:
                        value = int(token)
                    except ValueError:
                        message = f"expected an integer, got {token!r}"
                    else:
                        if not sizes or value >= 0:
                            continue
                        message = f"negative hyperedge size {value}"
                    raise ParseError(message, path=path, line=lineno)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=path) from exc
    raise ParseError("changed while being read", path=path)


def _read_sizes(path: str) -> tuple[int, ...]:
    """Every token of a file as a non-negative int, read and tokenised in
    one pass."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            values = tuple(map(int, _tokens(fh.read())))
        if min(values, default=0) >= 0:
            return values
    except OSError as exc:
        raise ParseError(f"cannot read: {exc}", path=path) from exc
    except ValueError:  # a token that is no integer, or bytes that are no UTF-8
        pass
    _raise_first_bad_token(path, sizes=True)


def _read_labels(path: str) -> tuple[list[int], list[int]]:
    """The distinct integer labels of a file, in order of first appearance,
    and each token's index among them, from one read and tokenising pass.

    Each distinct spelling is converted to int once and every token looks
    its int up, so the tokens share one int object per spelling instead of
    holding one each; spellings of one integer (7, 07) map to one label.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            tokens = _tokens(fh.read())
        spellings = dict.fromkeys(tokens)
        values = dict(zip(spellings, map(int, spellings)))
        return _dense_ids(list(map(values.__getitem__, tokens)))
    except OSError as exc:
        raise ParseError(f"cannot read: {exc}", path=path) from exc
    except ValueError:  # a token that is no integer, or bytes that are no UTF-8
        pass
    _raise_first_bad_token(path)


def parse_arb_simplices(nverts_path, simplices_path) -> ParseResult:
    """ARB-style pair of files: hyperedge sizes, plus a flat node-id list
    consumed in size-sized chunks. Timestamps files are ignored entirely."""
    with _collector_paused():
        sizes = _read_sizes(str(nverts_path))
        labels, ids = _read_labels(str(simplices_path))
        expected = sum(sizes)
        if expected != len(ids):
            raise ParseError(
                f"simplices length mismatch: nverts sums to {expected}, "
                f"found {len(ids)} node entries",
                path=str(simplices_path),
            )
        return _build_result(labels, ids, sizes, str(nverts_path))


# -- cluster reports ---------------------------------------------------------


@dataclass
class ClusterReport:
    """One local-clustering run: the cluster, its conductance, and provenance.

    ``status`` is "ok", "no-motifs" (the ball touches no occurrence of the
    pattern) or "undefined-conductance". ``phi`` is the 3-decimal rendering of
    ``phi_exact`` (= motif_cut / volume_used); ``cluster_motif_degree`` is
    d_mu(C) and ``volume_used``/``volume_side`` record which side's volume was
    the denominator: the smaller of d_mu(C) and the global motif volume minus
    d_mu(C).
    """

    dataset: str
    method: str
    motif: str
    status: str = "ok"
    cluster: list = field(default_factory=list)
    cluster_size: int = 0
    ball_size: int = 0
    phi: float | None = None
    phi_exact: str | None = None
    motif_cut: int | None = None
    cluster_motif_degree: int | None = None
    volume_used: int | None = None
    volume_side: str | None = None
    timings: dict = field(default_factory=dict)
    rng_seed: int = 0
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)

    def canonical_json(self) -> str:
        """Sorted-key JSON with wall-clock timings zeroed; the determinism
        surface of a report (timings are the only nondeterministic fields)."""
        data = asdict(self)
        data["timings"] = {k: 0.0 for k in data["timings"]}
        return json.dumps(data, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterReport":
        return cls(**data)


def write_report(report: ClusterReport, target) -> None:
    """Canonical key-ordered JSON, UTF-8, one trailing newline."""
    payload = report.to_json() + "\n"
    if hasattr(target, "write"):
        target.write(payload)
        return
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ParseError(f"cannot write report: {exc}", path=str(target)) from exc


def read_report(source) -> ClusterReport:
    """Parse a report written by write_report; anything else raises ParseError."""
    name = getattr(source, "name", "<stream>") if hasattr(source, "read") else str(source)
    try:
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise ParseError(f"cannot read report: {exc}", path=name) from exc
    if not isinstance(data, dict):
        raise ParseError("a report must be a JSON object", path=name)
    try:
        return ClusterReport.from_dict(data)
    except TypeError as exc:  # unknown or missing fields
        raise ParseError(f"not a cluster report: {exc}", path=name) from exc


BENCH_CSV_HEADER = ["graph", "method", "phi", "cluster_size", "time_s"]


def write_benchmark_csv(rows: list[dict], target) -> None:
    """Aggregate table with the fixed header graph,method,phi,cluster_size,time_s."""

    def _write(fh) -> None:
        writer = csv.DictWriter(fh, fieldnames=BENCH_CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in BENCH_CSV_HEADER})

    if hasattr(target, "write"):
        _write(target)
        return
    try:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    except OSError as exc:
        raise ParseError(f"cannot write benchmark CSV: {exc}", path=str(target)) from exc


def render_phi(phi: Fraction | None) -> float | None:
    """Decimal rendering with 3 fractional digits (exact when representable)."""
    if phi is None:
        return None
    return round(float(phi), 3)


def format_csv_float(value) -> str:
    return "" if value is None else f"{value:.3f}"
