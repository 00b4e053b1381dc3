"""Tokenization, document-frequency statistics, and QA pair loading.

File formats:
  corpus   JSONL, one object per line: {"id": str, "text": str}
  qa pairs JSONL: {"query_id": str, "query_text": str, "positive_doc_id": str}
  idf      TSV "token<TAB>df<TAB>idf" under a header line "#N=<num_documents>"
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from multires.errors import EmptyCorpusError, IntegrityError, ParseError
from multires.fileio import atomic_write, open_text

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class QaPair:
    query_id: str
    query_text: str
    positive_doc_id: str


@dataclass
class IdfTable:
    """Per-token document frequency and idf = ln(N/df) over an N-document corpus."""

    num_documents: int
    entries: dict[str, tuple[int, float]] = field(default_factory=dict)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens: maximal runs of letters/digits; everything else splits.

    Whitespace, punctuation and symbols are discarded, so "C++ vs. Java!"
    loses its intra-token punctuation and becomes ["c", "vs", "java"].
    """
    return _TOKEN_RE.findall(text.lower())


def build_idf(corpus: list[Document]) -> IdfTable:
    """Count per-token document frequency (presence, not occurrences)."""
    if not corpus:
        raise EmptyCorpusError("cannot build document frequencies from an empty corpus")
    n = len(corpus)
    df: dict[str, int] = {}
    for doc in corpus:
        for token in set(tokenize(doc.text)):
            df[token] = df.get(token, 0) + 1
    idf = {count: math.log(n / count) for count in set(df.values())}  # one log per distinct df
    entries = {tok: (count, idf[count]) for tok, count in df.items()}
    return IdfTable(num_documents=n, entries=entries)


def lookup_idf(table: IdfTable, token: str) -> float:
    """Stored idf, or the out-of-vocabulary default ln(N/1) for unseen tokens."""
    entry = table.entries.get(token)
    if entry is not None:
        return entry[1]
    return math.log(table.num_documents)


def save_idf(table: IdfTable, path: str) -> None:
    """Write the TSV export; rows sorted by token for reproducible bytes."""
    lines = [f"#N={table.num_documents}\n"]
    lines += [f"{token}\t{df}\t{idf!r}\n" for token, (df, idf) in sorted(table.entries.items())]
    with atomic_write(path) as fh:
        fh.write("".join(lines).encode("utf-8"))


def load_idf(path: str) -> IdfTable:
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#N="):
            raise ParseError("idf file must start with '#N=<num_documents>'", line=1)
        count = header[3:]
        if not count.isdecimal() or int(count) < 1:
            raise ParseError(f"document count {count!r} is not an integer >= 1", line=1)
        n = int(count)
        entries: dict[str, tuple[int, float]] = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("expected token<TAB>df<TAB>idf", line=lineno)
            if parts[0] in entries:
                raise ParseError(f"token {parts[0]!r} is listed twice", line=lineno)
            try:
                df, idf = int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not 1 <= df <= n:
                raise ParseError(f"df {df} outside 1..{n}", line=lineno)
            if abs(idf - math.log(n / df)) > 1e-12:
                raise ParseError(f"idf {idf!r} does not equal ln({n}/{df})", line=lineno)
            entries[parts[0]] = (df, idf)
    return IdfTable(num_documents=n, entries=entries)


def _jsonl_objects(fh, fields: tuple[str, ...]):
    """Yield (line number, object) per nonblank line; each must be a JSON object with ``fields``."""
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
        if not isinstance(obj, dict):
            raise ParseError(f"expected a JSON object, got {type(obj).__name__}", line=lineno)
        missing = [k for k in fields if k not in obj]
        if missing:
            raise ParseError(f"missing field(s) {missing}", line=lineno)
        yield lineno, obj


def load_corpus(path: str) -> list[Document]:
    """Read corpus JSONL; ids must be nonempty and unique."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, obj in _jsonl_objects(fh, ("id", "text")):
            doc_id = obj["id"]
            if not isinstance(doc_id, str) or not doc_id:
                raise ParseError("document id must be a nonempty string", line=lineno)
            if doc_id in seen:
                raise ParseError(f"duplicate document id {doc_id!r}", line=lineno)
            seen.add(doc_id)
            docs.append(Document(id=doc_id, text=str(obj["text"])))
    return docs


def load_qa_pairs(path: str, corpus: list[Document]) -> list[QaPair]:
    """Read QA pairs JSONL and validate every positive_doc_id against the corpus.

    A query id may repeat, one line per positive document, but only with
    the same query text.
    """
    doc_ids = {doc.id for doc in corpus}
    texts: dict[str, str] = {}
    pairs: list[QaPair] = []
    with open_text(path) as fh:
        for lineno, obj in _jsonl_objects(fh, ("query_id", "query_text", "positive_doc_id")):
            pair = QaPair(
                query_id=str(obj["query_id"]),
                query_text=str(obj["query_text"]),
                positive_doc_id=str(obj["positive_doc_id"]),
            )
            if pair.positive_doc_id not in doc_ids:
                raise IntegrityError(
                    f"line {lineno}: positive_doc_id {pair.positive_doc_id!r} not in corpus"
                )
            if texts.setdefault(pair.query_id, pair.query_text) != pair.query_text:
                raise ParseError(
                    f"query id {pair.query_id!r} repeats with a different query_text", line=lineno
                )
            pairs.append(pair)
    return pairs
