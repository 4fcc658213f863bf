"""Correctness checks computed apart from the program.

Each check returns a list of problems (empty when the output is right),
so one run can report every failure and the tests can hand a check a
deliberately wrong output and see it rejected.  Content is recomputed
here with :mod:`hashlib` from the chunk definition (literal bytes, or a
SHA-256 keystream of the chunk seed), not read back through the
program's own fingerprint helpers.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


def _content_key(blob) -> tuple:
    return tuple((chunk.seed, chunk.size, chunk.literal) for chunk in blob.chunks)


class ContentHasher:
    """MD5 of a blob's bytes, expanded here from its chunk definitions.

    The digest is a pure function of the chunk sequence, so it is
    memoised by that sequence: a tampered blob has other chunks and is
    hashed afresh.
    """

    def __init__(self) -> None:
        self._memo: Dict[tuple, str] = {}

    def md5(self, blob) -> str:
        key = _content_key(blob)
        digest = self._memo.get(key)
        if digest is None:
            hasher = hashlib.md5()
            for seed, size, literal in key:
                if literal is not None:
                    hasher.update(literal)
                    continue
                produced = 0
                counter = 0
                while produced < size:
                    block = hashlib.sha256(f"{seed}:{counter}".encode()).digest()
                    block = block[: size - produced]
                    hasher.update(block)
                    produced += len(block)
                    counter += 1
            digest = hasher.hexdigest()
            self._memo[key] = digest
        return digest


class SourceFiles:
    """Path → blob of each generated image, from its own layers."""

    def __init__(self) -> None:
        self._trees: Dict[str, object] = {}

    def blob(self, generated, path: str):
        tree = self._trees.get(generated.reference)
        if tree is None:
            tree = generated.image.flatten()
            self._trees[generated.reference] = tree
        return tree.stat(path).blob


def check_reads(
    reads: Iterable[Tuple[str, str, object]],
    images: Mapping[str, object],
    hasher: ContentHasher,
    sources: SourceFiles,
) -> List[str]:
    """Every file a task read has the bytes its source image holds there.

    ``reads`` holds ``(reference, path, blob read)`` triples; ``images``
    maps a reference to its generated image.
    """
    problems: List[str] = []
    count = 0
    for reference, path, blob in reads:
        count += 1
        expected = hasher.md5(sources.blob(images[reference], path))
        if hasher.md5(blob) != expected:
            problems.append(f"{reference}:{path}: read content differs from the source image")
    if count == 0:
        problems.append("no task read was recorded")
    return problems


def check_ready_within_total(samples: Iterable[Tuple[str, float, float]]) -> List[str]:
    """Every ``(label, ready_s, total_s)`` is ready no later than done."""
    return [
        f"{label}: ready {ready:.6f}s after its total {total:.6f}s"
        for label, ready, total in samples
        if not ready <= total
    ]


def check_equal(label: str, got, expected) -> List[str]:
    return [] if got == expected else [f"{label}: got {got!r}, expected {expected!r}"]


def check_at_most(label: str, got: float, limit: float) -> List[str]:
    return [] if got <= limit else [f"{label}: {got!r} exceeds {limit!r}"]


def check_at_least(label: str, got: float, floor: float) -> List[str]:
    return [] if got >= floor else [f"{label}: {got!r} is below {floor!r}"]


def distinct_content_bytes(blobs: Iterable[object]) -> int:
    """Total size of the distinct contents among ``blobs``."""
    return sum({_content_key(blob): blob.size for blob in blobs}.values())


def check_no_refetch(fetched: Sequence[str], wire_fetches: int) -> List[str]:
    """No identity was fetched twice; the wire saw one fetch per identity."""
    problems = [
        f"{identity} fetched {times} times"
        for identity, times in sorted(Counter(fetched).items())
        if times > 1
    ]
    if wire_fetches != len(fetched):
        problems.append(
            f"{len(fetched)} journaled fetches but {wire_fetches} fetches on the wire"
        )
    return problems


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0–100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
