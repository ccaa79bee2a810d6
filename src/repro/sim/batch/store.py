"""Durable trial store: checkpointed, resumable, cross-host-shardable sweeps.

:func:`~repro.sim.batch.runner.run_trials` recomputes everything on
every call, so a killed full-profile regeneration used to lose hours of
work. :class:`TrialStore` is the fix — a content-addressed on-disk
cache of completed :class:`~repro.sim.batch.runner.TrialResult`\\ s:

* **Key** — ``blake2b`` of the canonical JSON of
  ``(task_name, TrialSpec, RESULT_FORMAT_VERSION)``
  (:func:`spec_key`). Specs canonicalize their params on construction
  (sorted tuples), so equal specs can never produce distinct keys, and
  the version constant is bumped whenever result derivation changes so
  stale caches go cold instead of silently serving old numbers.
* **Layout** — one JSONL shard file per task name under ``shards/``,
  plus an ``index.json`` summary. Each record is one line; a completed
  trial is appended and fsynced the moment it finishes ("atomic
  append-on-complete"), and the loader skips torn trailing lines, so a
  crash mid-append loses at most the record being written.
* **Round trip** — result ``data`` is encoded with tuple tagging
  (``{"__tuple__": [...]}``) so the documented scalar palette of
  :class:`TrialResult` (numbers, strings, bools, small tuples) survives
  JSON byte-identically; a cached result compares equal to a freshly
  computed one.

Sharding across hosts composes with the cache:
:func:`~repro.sim.batch.runner.shard` deterministically partitions a
grid by position, each host runs its slice into its own store, and
:func:`merge_stores` combines the stores into one — deduplicating
identical records and refusing conflicting ones — after which a final
``run_trials(..., store=merged)`` serves the whole grid from cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Union

from ...errors import ConfigurationError
from .runner import TrialResult, TrialSpec, check_shard, shard  # noqa: F401

#: Bump whenever the meaning or derivation of stored results changes
#: (engine semantics, randomness derivation, metric definitions): keys
#: embed it, so old records become unreachable rather than wrong.
RESULT_FORMAT_VERSION = 1

_SHARD_DIR = "shards"
_INDEX_NAME = "index.json"
_TUPLE_TAG = "__tuple__"


def _encode(value: Any) -> Any:
    """JSON-ready form of a spec/result value, tuples tagged for round trip."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"trial data keys must be strings, got {key!r}")
            if key == _TUPLE_TAG:
                raise ConfigurationError(
                    f"trial data key {_TUPLE_TAG!r} is reserved")
            out[key] = _encode(item)
        return out
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"value {value!r} of type {type(value).__name__} is not storable; "
        f"trial specs and data must hold JSON scalars, tuples, lists, dicts")


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode(v) for v in value[_TUPLE_TAG])
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def canonical_spec(spec: TrialSpec) -> Dict[str, Any]:
    """The spec as a canonical JSON-ready dict (params already sorted)."""
    return {
        "family": spec.family,
        "n": spec.n,
        "seed": spec.seed,
        "params": [[key, _encode(value)] for key, value in spec.params],
    }


def spec_key(task_name: str, spec: TrialSpec,
             version: int = RESULT_FORMAT_VERSION) -> str:
    """Content address of one trial: hash of (task, canonical spec, version)."""
    payload = json.dumps(
        {"task": task_name, "version": version, "spec": canonical_spec(spec)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def record_digest(record: Dict[str, Any]) -> str:
    """Content address of one raw store record (order-insensitive).

    Hex BLAKE2b-128 of the record's canonical JSON (sorted keys), used
    by merge-conflict reports: two records with the same trial key but
    different digests are two stores disagreeing about a deterministic
    computation, and the digests let the operator identify *which*
    store copies differ without diffing full payload dumps.
    """
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def open_jsonl_append(path: Union[str, os.PathLike]) -> IO[str]:
    """Open ``path`` for appending JSONL records, healing a torn tail.

    A crash mid-append can leave the file without a trailing newline;
    terminate the torn line first, or the next record would fuse with
    it and both lines would be lost on load.
    """
    path = os.fspath(path)
    torn = False
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, "rb") as existing:
            existing.seek(-1, os.SEEK_END)
            torn = existing.read(1) != b"\n"
    handle = open(path, "a", encoding="utf-8")
    if torn:
        handle.write("\n")
    return handle


def append_jsonl(handle: IO[str], record: Dict[str, Any]) -> None:
    """Append one record as a JSON line with flush+fsync durability."""
    handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    handle.flush()
    os.fsync(handle.fileno())


def read_jsonl(path: Union[str, os.PathLike]) -> Iterator[Dict[str, Any]]:
    """Parsed dict records from a JSONL file, torn/blank lines skipped.

    A line that fails to parse was never acknowledged (a torn write
    from a crash mid-append), so skipping it is the correct resume
    semantics; non-dict lines are foreign and skipped too. A missing
    file yields nothing.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record


def _shard_filename(task_name: str) -> str:
    """Stable, filesystem-safe shard file name for a task namespace."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", task_name)
    if safe != task_name or not safe:
        # Disambiguate: distinct task names must never share a file
        # after sanitization collapses their unsafe characters.
        digest = hashlib.blake2b(task_name.encode("utf-8"),
                                 digest_size=4).hexdigest()
        safe = f"{safe or 'task'}-{digest}"
    return f"{safe}.jsonl"


class TrialStore:
    """A directory of completed trials, loaded eagerly, appended atomically.

    Open one with its root directory (created if missing); pass it as
    ``run_trials(..., store=...)``. Records are held in memory keyed by
    :func:`spec_key`, so lookups are dict-speed; appends go straight to
    the task's shard file with flush+fsync before the in-memory index
    is updated, so the disk never claims a result that wasn't durably
    written.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        os.makedirs(self._shard_dir, exist_ok=True)
        self._records: Dict[str, Dict[str, Any]] = {}
        self._order: List[str] = []
        self._counts: Dict[str, int] = {}
        self._handles: Dict[str, IO[str]] = {}
        self._load()

    @property
    def _shard_dir(self) -> str:
        return os.path.join(self.root, _SHARD_DIR)

    def _load(self) -> None:
        for name in sorted(os.listdir(self._shard_dir)):
            if not name.endswith(".jsonl"):
                continue
            for record in read_jsonl(os.path.join(self._shard_dir, name)):
                key = record.get("key")
                if not isinstance(key, str) or "task" not in record:
                    continue
                if key not in self._records:
                    self._records[key] = record
                    self._order.append(key)
                    task = record["task"]
                    self._counts[task] = self._counts.get(task, 0) + 1

    # ------------------------------------------------------------------
    # cache protocol used by run_trials
    # ------------------------------------------------------------------
    def get(self, task_name: str, spec: TrialSpec) -> Optional[TrialResult]:
        """The cached result for ``(task_name, spec)``, or None on a miss."""
        record = self._records.get(spec_key(task_name, spec))
        if record is None or record.get("task") != task_name:
            return None
        return TrialResult(spec, bool(record["ok"]), _decode(record["data"]))

    def put(self, task_name: str, spec: TrialSpec,
            result: TrialResult) -> None:
        """Checkpoint one completed trial.

        Re-putting an identical result is an idempotent no-op; a
        *different* result for an existing key raises — the store
        claims to cache a deterministic computation, so silently
        keeping the old payload would paper over exactly the kind of
        divergence :func:`merge_stores` refuses to merge.
        """
        key = spec_key(task_name, spec)
        record = {
            "version": RESULT_FORMAT_VERSION,
            "task": task_name,
            "key": key,
            "spec": canonical_spec(spec),
            "ok": bool(result.ok),
            "data": _encode(result.data),
        }
        existing = self._records.get(key)
        if existing is not None:
            if existing == record:
                return
            raise ConfigurationError(
                f"conflicting result for key {key} (task {task_name!r}): "
                f"stored {existing!r} vs incoming {record!r} — a "
                f"deterministic trial produced two different payloads")
        self._append(record)

    # ------------------------------------------------------------------
    # raw record plumbing (merge, listing)
    # ------------------------------------------------------------------
    def _handle_for(self, task_name: str) -> IO[str]:
        path = os.path.join(self._shard_dir, _shard_filename(task_name))
        handle = self._handles.get(path)
        if handle is None:
            handle = open_jsonl_append(path)
            self._handles[path] = handle
        return handle

    def _append(self, record: Dict[str, Any], write_index: bool = True) -> None:
        append_jsonl(self._handle_for(record["task"]), record)
        self._records[record["key"]] = record
        self._order.append(record["key"])
        task = record["task"]
        self._counts[task] = self._counts.get(task, 0) + 1
        if write_index:
            self._write_index()

    def _write_index(self) -> None:
        index = {
            "format": RESULT_FORMAT_VERSION,
            "total": len(self._records),
            "tasks": self.tasks(),
        }
        tmp = os.path.join(self.root, _INDEX_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(index, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp, os.path.join(self.root, _INDEX_NAME))

    def records(self) -> Iterator[Dict[str, Any]]:
        """Raw records in insertion order (load order, then appends)."""
        for key in self._order:
            yield self._records[key]

    # ------------------------------------------------------------------
    # merge protocol (see merge_stores)
    # ------------------------------------------------------------------
    def _get_record(self, key: str) -> Optional[Dict[str, Any]]:
        return self._records.get(key)

    def _merge_append(self, record: Dict[str, Any]) -> None:
        # Index writes are batched in _merge_finalize: one rewrite per
        # merge, not per record. The index is a derived summary (loads
        # scan the shard files), so a crash mid-merge leaves it stale
        # but never wrong to resume from.
        self._append(record, write_index=False)

    def _merge_finalize(self, stats: Dict[str, int]) -> None:
        if stats["added"]:
            self._write_index()

    def tasks(self) -> Dict[str, int]:
        """Record count per task name, sorted by name.

        Maintained incrementally — the index rewrite after every append
        must not rescan all records.
        """
        return dict(sorted(self._counts.items()))

    def describe(self) -> str:
        """Human-oriented summary (the CLI ``--list`` output)."""
        lines = [f"store {self.root}: {len(self)} result(s), "
                 f"format v{RESULT_FORMAT_VERSION}"]
        for task_name, count in self.tasks().items():
            lines.append(f"  {task_name}: {count}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def close(self) -> None:
        """Close shard file handles (appends reopen them on demand)."""
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def select_results(store: TrialStore, task: Optional[str] = None,
                   family: Optional[str] = None, n: Optional[int] = None,
                   seed: Optional[int] = None) -> List[TrialResult]:
    """The store's results matching every given filter, in insertion order.

    A filter left as ``None`` matches anything. The CLI's ``--query``
    aggregates these with :func:`~repro.sim.batch.runner.aggregate`.
    """
    results = []
    for record in store.records():
        spec = record["spec"]
        if ((task is None or record["task"] == task)
                and (family is None or spec["family"] == family)
                and (n is None or spec["n"] == n)
                and (seed is None or spec["seed"] == seed)):
            params = tuple((key, _decode(value))
                           for key, value in spec["params"])
            results.append(TrialResult(
                TrialSpec(spec["family"], spec["n"], spec["seed"], params),
                bool(record["ok"]), _decode(record["data"])))
    return results


def merge_stores(dest: TrialStore,
                 sources: Iterable[Union[TrialStore, str, os.PathLike]],
                 ) -> Dict[str, int]:
    """Fold source stores into ``dest``, deterministically.

    Sources are processed in the given order, records in each source's
    insertion order, so merging the same stores always yields the same
    destination. A record whose key already exists is checked for
    payload equality: identical records (two hosts computed the same
    trial) are skipped, conflicting ones raise with the first
    conflicting trial key and both record digests — a conflict means
    two stores disagree about a deterministic computation, which is a
    bug worth stopping for, not papering over, and the digests say
    which copies to go look at. A path source is opened as a
    :class:`TrialStore`.

    An empty source list is rejected: a merge of nothing would report
    success while leaving ``dest`` unchanged, which in every observed
    case meant a glob or a shard host produced no stores — an error the
    caller needs to hear about, not a no-op.
    """
    sources = list(sources)
    if not sources:
        raise ConfigurationError(
            "merge_stores needs at least one source store; an empty "
            "merge would silently leave the destination unchanged")
    stats = {"added": 0, "duplicate": 0}
    for source in sources:
        if isinstance(source, (str, os.PathLike)):
            path = os.fspath(source)
            if not os.path.isdir(path):
                # Opening would silently create an empty store, turning
                # a typo'd path into a "successful" merge of nothing —
                # and a later run would recompute that host's slice.
                raise ConfigurationError(
                    f"merge source {path!r} does not exist")
            src = TrialStore(path)
        else:
            src = source
        for record in src.records():
            existing = dest._get_record(record["key"])
            if existing is None:
                dest._merge_append(record)
                stats["added"] += 1
            elif existing == record:
                stats["duplicate"] += 1
            else:
                raise ConfigurationError(
                    f"conflicting records for key {record['key']} "
                    f"(task {record.get('task')!r}) while merging "
                    f"{getattr(src, 'root', source)!r}: stored record "
                    f"digest {record_digest(existing)} vs incoming record "
                    f"digest {record_digest(record)} — two stores disagree "
                    f"about a deterministic computation")
    dest._merge_finalize(stats)
    return stats
