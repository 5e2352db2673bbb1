"""Text file formats and machine-readable reports.

Tournament files are a human-diffable edge list::

    bt-tournament v1
    n=3
    labels=alice,bob,carol      (optional)
    0 1 0.9
    1 2 0.9
    2 0 0.9

One body record per unordered pair, ``x y p`` meaning x beats y with
probability p (the record direction is the stored edge orientation).
Probabilities are written with Python's shortest round-tripping decimal
representation, so ``parse(serialize(t))`` reproduces ``t`` bit-exactly.

A body record is three whitespace-separated tokens.  Each vertex is
anything Python's ``int`` reads (``7``, ``+7``, ``007``, ``1_0``) or, when
a ``labels=`` line is present, a label; an integer always wins over a
label that looks like one.  The value is anything Python's ``float``
reads.  Blank lines, ``#`` comment lines and the ``n=``/``labels=`` lines
may stand anywhere after the tag, though ``n=`` must come before the first
record.

The reader scans the header up to the first body line, then decodes the
rest of the file as columns in one ``np.loadtxt`` call.  That path takes
what ``serialize_tournament`` and ``serialize_tree`` write: from the first
record on, one record per line of ASCII integer ids and a float, blank
lines aside; blank and comment lines after the last record are dropped
before the call.  Anything it refuses (labels, comment or key
lines inside the body, non-ASCII text, tokens only Python reads such as
``1_0`` or ``١``, ids beyond int64, a wrong token count) sends the whole
body through the per-record decoder, which also gives every line-numbered
``ParseError``.  Both paths give the same tournament bit for bit; a
refused body also pays for the refused ``np.loadtxt`` call.

Tree files are the same with the ``bt-tree v1`` tag and n-1 records.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from ._version import __version__
from .balance import TreeWeights
from .errors import LabelError, ParameterOutOfRangeError, ParseError
from .tournament import RNG_ALGORITHM, StochasticTournament, new_tournament

TOURNAMENT_TAG = "bt-tournament v1"
TREE_TAG = "bt-tree v1"


@dataclass(frozen=True)
class TournamentDocument:
    """A parsed tournament plus its optional vertex labels."""

    tournament: StochasticTournament
    labels: tuple[str, ...] | None


#: Letter and word that name the value column of each file kind's records.
_VALUE = {TOURNAMENT_TAG: ("p", "probability"), TREE_TAG: ("w", "weight")}

#: One body record as ``np.loadtxt`` decodes it.
_RECORD = np.dtype([("x", np.int64), ("y", np.int64), ("value", np.float64)])

#: ``warnings.catch_warnings`` saves and restores the process-wide filter
#: list; parses in two threads must not interleave those steps, or one of
#: them restores a list that keeps the other's "error" filter for good.
_WARNINGS_LOCK = threading.Lock()


def _columns(lines: list[str], all_ascii: bool = False) -> np.ndarray | None:
    """The body lines as one ``(x, y, value)`` record array, or None where
    ``np.loadtxt`` refuses them: any conversion or column-count error, and
    any warning (an integer column holding ``1.0``; no data, where no line
    holds a record).  Non-ASCII lines are refused up front, since loadtxt
    reads some letters as digits (``"1\u01fe"`` as the integer 472).  A
    caller whose whole text is ASCII passes ``all_ascii``, which CPython's
    ``str.isascii`` knows without a scan, and no line is checked."""
    if not (all_ascii or all(map(str.isascii, lines))):
        return None
    with _WARNINGS_LOCK, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=_RECORD, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _read(source: str | IO[str], tag: str):
    """Returns (n, labels, records) of a tournament or tree file.

    The header is scanned up to the first body line; the rest of the file
    is then decoded as columns in one ``np.loadtxt`` call, into a record
    array.  Where that refuses the body, the whole rest of the file is
    validated line by line, and each body record is decoded once into
    ``(x, y, value)``, in file order.
    """
    text = source if isinstance(source, str) else source.read()
    if not isinstance(text, str):  # a stream opened in binary mode
        raise ParseError(1, f"expected text, got {type(text).__name__}")
    lines = text.splitlines()
    n = None
    labels = None
    body = []
    columns = None
    saw_tag = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_tag:
            if line != tag:
                raise ParseError(lineno, f"expected header {tag!r}, got {line!r}")
            saw_tag = True
            continue
        if line.startswith("n="):
            if n is not None:
                raise ParseError(lineno, "duplicate n= line")
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(lineno, f"bad vertex count {line[2:]!r}") from None
            continue
        if line.startswith("labels="):
            if labels is not None:
                raise ParseError(lineno, "duplicate labels= line")
            labels = tuple(s.strip(" \t") for s in line[len("labels="):].split(","))
            if fault := _label_fault(labels):
                raise ParseError(lineno, fault)
            continue
        if n is None:
            raise ParseError(lineno, "body record before n= line")
        if not body:
            # a body loadtxt takes holds no header, comment or label line;
            # trailing blank and comment lines are dropped before it is asked
            end = len(lines)
            while lines[end - 1].strip()[:1] in ("", "#"):
                end -= 1
            columns = _columns(lines[lineno - 1:end], text.isascii())
            if columns is not None:
                break
        body.append((lineno, line))
    if n is None:
        raise ParseError(len(lines) or 1, "missing n= line")
    if labels is not None and len(labels) != n:
        raise ParseError(1, f"{len(labels)} labels for n={n} vertices")
    if columns is not None:
        return n, labels, columns

    letter, word = _VALUE[tag]
    label_ids = {s: i for i, s in enumerate(labels or ())}

    def vertex(token: str, lineno: int) -> int:
        # integer ids always work; labels resolve anything non-numeric
        try:
            return int(token)
        except ValueError:
            if token in label_ids:
                return label_ids[token]
        raise ParseError(lineno, f"unknown vertex {token!r}")

    records = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(lineno, f"expected 'x y {letter}', got {' '.join(tokens)!r}")
        x = vertex(tokens[0], lineno)
        y = vertex(tokens[1], lineno)
        try:
            value = float(tokens[2])
        except ValueError:
            raise ParseError(lineno, f"bad {word} {tokens[2]!r}") from None
        records.append((x, y, value))
    return n, labels, records


def parse_document(source: str | IO[str]) -> TournamentDocument:
    """Parse a tournament file from a string or text stream.

    Malformed input raises :class:`ParseError` with the offending line
    number; structural problems (duplicate or missing pairs, out-of-range
    probabilities) surface as their dedicated error types.
    """
    n, labels, records = _read(source, TOURNAMENT_TAG)
    return TournamentDocument(new_tournament(n, records), labels)


def parse_tournament(source: str | IO[str]) -> StochasticTournament:
    """Like :func:`parse_document` but drops the labels."""
    return parse_document(source).tournament


def serialize_tournament(
    t: StochasticTournament, labels: tuple[str, ...] | None = None
) -> str:
    """Render a tournament file; inverse of :func:`parse_tournament`."""
    if labels is None:
        return _serialize(TOURNAMENT_TAG, t.n, t.edges())
    try:
        count = len(labels)
    except TypeError:  # 5, np.array("a")
        raise LabelError(f"labels must be a sequence of text, got {labels!r}") from None
    if count != t.n:
        raise LabelError(f"{count} labels for n={t.n} vertices")
    if fault := _label_fault(labels):
        raise LabelError(fault)
    if any("," in s for s in labels):
        raise LabelError("labels must hold no comma")
    return _serialize(TOURNAMENT_TAG, t.n, t.edges(), "labels=" + ",".join(labels))


def _label_fault(labels) -> str | None:
    """The one label rule, for the reader and the writer: each label is
    nonempty text without whitespace, and none repeats; else what fails."""
    if any(not isinstance(s, str) or s.split() != [s] for s in labels):
        return "labels must be nonempty text, no whitespace"
    return "labels are not unique" if len(set(labels)) != len(labels) else None


def _serialize(tag: str, n: int, records, *header: str) -> str:
    """The one writer of both file kinds: the tag, ``n=``, any further
    ``header`` lines, then one ``x y w`` line per record, ``w`` written with
    ``repr`` so that it reads back bit for bit."""
    lines = [tag, f"n={n}", *header]
    lines.extend([f"{x} {y} {w!r}" for x, y, w in records])
    return "\n".join(lines) + "\n"


def parse_tree(source: str | IO[str]) -> TreeWeights:
    """Parse a spanning-tree file (``bt-tree v1``)."""
    n, _, records = _read(source, TREE_TAG)
    return TreeWeights(n, tuple(records))


def serialize_tree(tw: TreeWeights) -> str:
    """Render a tree file; inverse of :func:`parse_tree`."""
    return _serialize(TREE_TAG, tw.n, tw.edges)


def _open(path: str | bytes | os.PathLike) -> IO[str]:
    """The file at ``path`` opened for reading as UTF-8 text.  Only a path is
    taken: ``open`` reads an integer as a file descriptor, and closing it
    would close the caller's stdin or stdout."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ParameterOutOfRangeError(f"path must be a str, bytes or os.PathLike, got {path!r}")
    return open(path, "r", encoding="utf-8")


def load_tournament(path: str | os.PathLike) -> TournamentDocument:
    with _open(path) as f:
        return parse_document(f)


def load_tree(path: str | os.PathLike) -> TreeWeights:
    with _open(path) as f:
        return parse_tree(f)


def make_report(command: str, config: dict, result: dict, seed=None) -> dict:
    """Assemble the standard report envelope.

    Reruns with identical inputs, flags and seed produce identical reports
    except for the ``timestamp`` field; key order is fixed.
    """
    report = {
        "tool": "bttest",
        "version": __version__,
        "command": command,
        "seed": seed,
        "rng": RNG_ALGORITHM if seed is not None else None,
        "config": config,
        "result": result,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return report


def report_json(report: dict) -> str:
    """The report as one line of compact JSON, ``json.dumps(report)``; the
    ``repair`` command writes its edit list into this text in blocks."""
    return json.dumps(report)
