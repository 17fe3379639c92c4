"""Dataset ingestion (edge-list and ARB two-file formats), cleaning, and
structured result output.

Cleaning rules, applied identically by both parsers: repeated labels inside a
hyperedge are deduplicated, hyperedges with fewer than two distinct nodes are
dropped (counted), and duplicate hyperedges merge into one (counted). Labels
are mapped to dense ids in order of first appearance; the label list maps them
back. Reports serialize as canonical sorted-key JSON so golden files are
byte-stable.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .core import Hypergraph, Hyperedge
from .errors import InputError, ParseError

log = logging.getLogger(__name__)

_SPLIT = re.compile(r"[,\s]+")


@dataclass
class ParseResult:
    hypergraph: Hypergraph
    labels: list  # dense id -> original label
    dropped_small: int = 0  # hyperedges with < 2 distinct nodes
    merged_duplicates: int = 0  # lines merged into an existing hyperedge

    def label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}


def _build_result(
    raw_edges: list[tuple], dropped: int, source: str
) -> ParseResult:
    """raw_edges: list of label tuples (already deduplicated within the edge)."""
    labels: list = []
    index: dict = {}
    keys: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    merged = 0
    for members in raw_edges:
        ids = []
        for lab in members:
            i = index.get(lab)
            if i is None:
                i = len(labels)
                index[lab] = i
                labels.append(lab)
            ids.append(i)
        key = tuple(sorted(ids))
        if key in keys:
            merged += 1
        else:
            keys[key] = None
    if not keys:
        raise InputError(f"no usable hyperedges in {source} after cleaning")
    edges = [Hyperedge(key) for key in keys]
    if dropped:
        log.warning("%s: dropped %d hyperedges with < 2 distinct nodes", source, dropped)
    if merged:
        log.warning("%s: merged %d duplicate hyperedges", source, merged)
    return ParseResult(Hypergraph(len(labels), edges), labels, dropped, merged)


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
    raw: list[tuple] = []
    dropped = 0
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        tokens = [t for t in _SPLIT.split(text) if t]
        members = tuple(dict.fromkeys(tokens))  # dedupe, keep order
        if len(members) < 2:
            dropped += 1
            continue
        raw.append(members)
    return _build_result(raw, dropped, name)


def _read_int_lines(path: str) -> list[int]:
    out: list[int] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                for token in _SPLIT.split(text):
                    if not token:
                        continue
                    try:
                        out.append(int(token))
                    except ValueError:
                        raise ParseError(
                            f"expected an integer, got {token!r}", path=path, line=lineno
                        ) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=path) from exc
    except OSError as exc:
        raise ParseError(f"cannot read: {exc}", path=str(path)) from exc
    return out


def parse_arb_simplices(nverts_path, simplices_path) -> ParseResult:
    """ARB-style pair of files: hyperedge sizes, plus a flat node-id list
    consumed in size-sized chunks. Timestamps files are ignored entirely."""
    nverts = _read_int_lines(str(nverts_path))
    flat = _read_int_lines(str(simplices_path))
    expected = sum(nverts)
    if expected != len(flat):
        raise ParseError(
            f"simplices length mismatch: nverts sums to {expected}, "
            f"found {len(flat)} node entries",
            path=str(simplices_path),
        )
    raw: list[tuple] = []
    dropped = 0
    pos = 0
    for size in nverts:
        chunk = flat[pos : pos + size]
        pos += size
        members = tuple(dict.fromkeys(chunk))
        if len(members) < 2:
            dropped += 1
            continue
        raw.append(members)
    return _build_result(raw, dropped, str(nverts_path))


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
    with open(target, "w", encoding="utf-8", newline="") as fh:
        _write(fh)


def render_phi(phi: Fraction | None) -> float | None:
    """Decimal rendering with 3 fractional digits (exact when representable)."""
    if phi is None:
        return None
    return round(float(phi), 3)


def format_csv_float(value) -> str:
    return "" if value is None else f"{value:.3f}"
