"""Dataset ingestion (edge-list and ARB two-file formats), cleaning, and
structured result output.

Cleaning rules, applied identically by both parsers: repeated labels inside a
hyperedge are deduplicated, hyperedges with fewer than two distinct nodes are
dropped (counted), and duplicate hyperedges merge into one (counted). A
negative ARB size is a ParseError. Labels are mapped to dense ids in order of
first appearance; the label list maps them back. Each file is read and
tokenised in one pass (a bad token re-reads it line by line, only to name the
line); ``_build_result`` canonicalises each hyperedge once, ``Hyperedge``
validates it once, and ``Hypergraph`` checks node bounds and uniqueness.
Reports serialize as canonical sorted-key JSON so golden files are byte-stable.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, pairwise

from .core import Hypergraph, Hyperedge
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


def _build_result(chunks: list, source: str) -> ParseResult:
    """Clean raw label chunks, one per hyperedge, into a ParseResult.

    Ids follow the first appearance of a label in a kept chunk, so a label
    that occurs only in dropped hyperedges gets none. Each kept chunk is
    canonicalised here once; ``Hyperedge`` validates it once. The cyclic
    garbage collector is paused meanwhile, if it was running: the build
    makes a few container objects per hyperedge, none of them in a cycle,
    and the collector would otherwise rescan the growing heap many times.
    """
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        kept = [len(set(chunk)) > 1 for chunk in chunks]
        labels = list(dict.fromkeys(chain.from_iterable(compress(chunks, kept))))
        to_id = dict(zip(labels, range(len(labels)))).__getitem__
        keys = [tuple(sorted(set(map(to_id, chunk)))) for chunk in compress(chunks, kept)]
        unique = dict.fromkeys(keys)
        if not unique:
            raise InputError(f"no usable hyperedges in {source} after cleaning")
        dropped = len(chunks) - len(keys)
        merged = len(keys) - len(unique)
        if dropped:
            log.warning("%s: dropped %d hyperedges with < 2 distinct nodes", source, dropped)
        if merged:
            log.warning("%s: merged %d duplicate hyperedges", source, merged)
        hypergraph = Hypergraph(len(labels), list(map(Hyperedge, unique)))
        return ParseResult(hypergraph, labels, dropped, merged)
    finally:
        if collecting:
            gc.enable()


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
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}", path=name) from exc
        except OSError as exc:
            raise ParseError(f"cannot read: {exc}", path=name) from exc
    texts = [line.strip() for line in lines]
    return _build_result([_tokens(t) for t in texts if t and t[0] != "#"], name)


def _read_ints(path: str, sizes: bool = False) -> tuple[int, ...]:
    """Every integer token of a file, read and tokenised in one pass.

    With ``sizes`` a negative value is an error too. Any error re-reads the
    file line by line to name the first bad token and its line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = tuple(map(int, _tokens(fh.read())))
        if not sizes or min(values, default=0) >= 0:
            return values
    except OSError as exc:
        raise ParseError(f"cannot read: {exc}", path=path) from exc
    except ValueError:  # a token that is no integer, or bytes that are no UTF-8
        pass
    try:
        with open(path, "r", encoding="utf-8") as fh:
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


def parse_arb_simplices(nverts_path, simplices_path) -> ParseResult:
    """ARB-style pair of files: hyperedge sizes, plus a flat node-id list
    consumed in size-sized chunks. Timestamps files are ignored entirely."""
    sizes = _read_ints(str(nverts_path), sizes=True)
    flat = _read_ints(str(simplices_path))
    expected = sum(sizes)
    if expected != len(flat):
        raise ParseError(
            f"simplices length mismatch: nverts sums to {expected}, "
            f"found {len(flat)} node entries",
            path=str(simplices_path),
        )
    chunks = [flat[i:j] for i, j in pairwise(accumulate(sizes, initial=0))]
    del flat  # not needed while the hypergraph is built; freeing it lowers the peak heap
    return _build_result(chunks, str(nverts_path))


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
