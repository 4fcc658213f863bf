"""Per-layer tracing from the benchmark's own files.

:class:`LayerTracer` installs wrappers around each layer's public entry
points (and the one overlay hook the Gear viewer's fault path runs in),
books the *self* CPU of every call per thread with
:func:`time.thread_time`, and restores the originals on
:meth:`LayerTracer.uninstall`.  Nothing under ``src/`` changes.

Self time is a frame's thread CPU minus the thread CPU of the wrapped
calls nested inside it, so a layer is charged only for its own work.
Thread CPU stops while a simulated client's worker thread is parked in a
scheduler handoff, so handoff waits are never booked as layer work.

Functions imported by name into other modules (``from repro.common.
hashing import fingerprint_tokens``) are replaced in every ``repro``
module that binds them, not only where they are defined.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer → ``(module, class or None for module functions, names)``.
LAYER_TARGETS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "clock": [("repro.common.clock", "SimScheduler", ("run", "run_until"))],
    "link": [("repro.net.link", "Link", ("transfer", "transfer_gen", "cancel_flows"))],
    "transport": [("repro.net.transport", "RpcTransport", ("call",))],
    "vfs.clone": [
        ("repro.vfs.inode", "Inode", ("clone",)),
        ("repro.vfs.tree", "FileSystemTree", ("clone",)),
    ],
    "vfs.overlay": [
        (
            "repro.vfs.overlay",
            "OverlayMount",
            (
                "exists", "stat", "is_dir", "readlink", "read_blob",
                "read_bytes", "listdir", "to_tree", "write_file",
                "append_file", "copy_up", "mkdir", "symlink", "remove",
                "rename",
            ),
        )
    ],
    "hashing": [
        (
            "repro.common.hashing",
            None,
            ("fingerprint_bytes", "fingerprint_tokens", "sha256_bytes", "sha256_tokens"),
        )
    ],
    "converter": [("repro.gear.converter", "GearConverter", ("convert",))],
    "index": [
        ("repro.gear.index", "GearIndex", ("from_image", "from_tree", "to_image", "stub_tree"))
    ],
    "registry": [
        (
            "repro.gear.registry",
            "GearRegistry",
            ("upload", "download", "query", "missing", "upload_many"),
        )
    ],
    # ``_materialize`` is the hook OverlayMount.read_blob calls for every
    # stub: the viewer's fault path (pool lookup, fetch, link) runs in it.
    "viewer": [("repro.gear.viewer", "GearFileViewer", ("_materialize", "file_size", "prefetch"))],
    "pool": [
        (
            "repro.gear.pool",
            "SharedFilePool",
            (
                "get", "contains", "peek", "insert", "prepare", "commit",
                "abort", "drop", "quarantine", "clear",
            ),
        )
    ],
    "journal": [
        (
            "repro.gear.journal",
            "IntentJournal",
            (
                "fetch_begin", "fetch_commit", "link_begin", "link_commit",
                "chunk_begin", "chunk_commit", "replay", "compact",
            ),
        )
    ],
    "driver": [
        (
            "repro.gear.driver",
            "GearDriver",
            (
                "pull_index", "get_index", "create_container",
                "start_container", "deploy", "destroy_container",
                "remove_image",
            ),
        )
    ],
    "docker": [
        (
            "repro.docker.daemon",
            "DockerDaemon",
            ("pull", "create_container", "start_container", "run", "destroy_container", "commit", "push"),
        ),
        (
            "repro.docker.registry",
            "DockerRegistry",
            ("push_layer", "push_manifest", "push_image", "get_manifest", "get_layer"),
        ),
    ],
    "faas": [
        ("repro.net.faas", "FaasFabric", ("fetch",)),
        ("repro.net.faas", "SharedCacheTier", ("fetch",)),
        ("repro.net.faas", "FaasTransport", ("call",)),
    ],
}


class _ThreadBook:
    """One thread's frames and totals (no sharing, so no locking)."""

    __slots__ = ("stack", "cpu", "calls", "inclusive", "counts")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.cpu: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()


@dataclass
class LayerTrace:
    """Merged totals of one traced interval (plain dicts, so JSON-able)."""

    cpu: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    inclusive: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    clock: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def merge(cls, books: List[_ThreadBook], clock_totals: Dict[str, float]) -> "LayerTrace":
        cpu: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        inclusive: Dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        for book in books:
            for key, value in book.cpu.items():
                cpu[key] += value
            calls.update(book.calls)
            for key, value in book.inclusive.items():
                inclusive[key] += value
            counts.update(book.counts)
        return cls(dict(cpu), dict(calls), dict(inclusive), dict(counts), dict(clock_totals))


class LayerTracer:
    """Installs, books and removes the per-layer wrappers."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self.reset()

    # -- books -----------------------------------------------------------

    def reset(self) -> None:
        """Start a new interval: every thread gets a fresh book."""
        self._local = threading.local()
        self._books: List[_ThreadBook] = []
        self._clock = {"wall_s": 0.0, "process_cpu_s": 0.0, "events": 0}

    def _book(self) -> _ThreadBook:
        try:
            return self._local.book
        except AttributeError:
            book = _ThreadBook()
            self._local.book = book
            with self._lock:
                self._books.append(book)
            return book

    def collect(self) -> LayerTrace:
        with self._lock:
            books = list(self._books)
        return LayerTrace.merge(books, self._clock)

    # -- wrappers --------------------------------------------------------

    def _timed(
        self,
        layer: str,
        key: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        book_for = self._book
        thread_time = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            book = book_for()
            if before is not None:
                args = before(book, args)
            stack = book.stack
            frame = [thread_time(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - frame[0]
                stack.pop()
                book.cpu[layer] += elapsed - frame[1]
                book.inclusive[key] += elapsed
                book.calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(book, result)
            return result

        return wrapper

    def _timed_gen(self, layer: str, key: str, fn: Callable) -> Callable:
        """Wrap a generator function, booking the CPU of every step."""
        book_for = self._book
        thread_time = time.thread_time

        def close(book: _ThreadBook, frame: List[float]) -> None:
            elapsed = thread_time() - frame[0]
            book.stack.pop()
            book.cpu[layer] += elapsed - frame[1]
            book.inclusive[key] += elapsed
            if book.stack:
                book.stack[-1][1] += elapsed

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            gen = fn(*args, **kwargs)
            book_for().calls[key] += 1
            sent: Any = None
            thrown: Optional[BaseException] = None
            while True:
                book = book_for()
                frame = [thread_time(), 0.0]
                book.stack.append(frame)
                try:
                    item = gen.send(sent) if thrown is None else gen.throw(thrown)
                except StopIteration as stop:
                    close(book, frame)
                    return stop.value
                except BaseException:
                    close(book, frame)
                    raise
                close(book, frame)
                thrown = None
                try:
                    sent = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the wrapped step
                    thrown, sent = exc, None

        return wrapper

    def _clocked_run(self, fn: Callable, key: str) -> Callable:
        """``SimScheduler.run``: self CPU plus wall, process CPU and events."""
        timed = self._timed("clock", key, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(scheduler: Any, *args: Any, **kwargs: Any) -> Any:
            totals = tracer._clock
            events_before = scheduler.events_processed
            wall_before = time.perf_counter()
            cpu_before = time.process_time()
            try:
                return timed(scheduler, *args, **kwargs)
            finally:
                totals["wall_s"] += time.perf_counter() - wall_before
                totals["process_cpu_s"] += time.process_time() - cpu_before
                totals["events"] += scheduler.events_processed - events_before

        return wrapper

    def _hooks(self, key: str) -> Tuple[Optional[Callable], Optional[Callable]]:
        """Counting hooks: bytes hashed, dedup hits, bytes converted."""
        if key in ("hashing.fingerprint_bytes", "hashing.sha256_bytes"):
            def before(book: _ThreadBook, args: tuple) -> tuple:
                book.counts["hashing.bytes"] += len(args[0])
                return args
            return before, None
        if key in ("hashing.fingerprint_tokens", "hashing.sha256_tokens"):
            def counted(book: _ThreadBook, tokens: Any):
                for token in tokens:
                    book.counts["hashing.bytes"] += len(token) + 1
                    yield token

            def before(book: _ThreadBook, args: tuple) -> tuple:
                return (counted(book, args[0]),) + tuple(args[1:])
            return before, None
        if key == "registry.GearRegistry.upload":
            def after(book: _ThreadBook, stored: Any) -> None:
                if not stored:
                    book.counts["registry.dedup_hits"] += 1
            return None, after
        if key == "converter.GearConverter.convert":
            def after(book: _ThreadBook, result: Any) -> None:
                book.counts["converter.bytes"] += result[1].image_bytes
            return None, after
        return None, None

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for layer, targets in LAYER_TARGETS.items():
                for module_name, class_name, names in targets:
                    module = importlib.import_module(module_name)
                    for name in names:
                        if class_name is None:
                            self._patch_function(layer, module, name)
                        else:
                            self._patch_method(layer, getattr(module, class_name), name)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        if layer == "clock":
            return self._clocked_run(fn, key)
        if inspect.isgeneratorfunction(fn):
            return self._timed_gen(layer, key, fn)
        before, after = self._hooks(key)
        return self._timed(layer, key, fn, before, after)

    def _patch_method(self, layer: str, cls: type, name: str) -> None:
        if name not in cls.__dict__:
            raise AttributeError(f"{cls.__name__} defines no {name!r} to trace")
        raw = cls.__dict__[name]
        key = f"{layer}.{cls.__name__}.{name}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(layer, key, raw.__func__))
        else:
            wrapped = self._wrap(layer, key, raw)
        self._patches.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def _patch_function(self, layer: str, module: Any, name: str) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(layer, f"{layer}.{name}", original)
        for module_name, bound in list(sys.modules.items()):
            if bound is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(bound).items()):
                if value is original:
                    self._patches.append((bound, attr, original))
                    setattr(bound, attr, wrapped)
