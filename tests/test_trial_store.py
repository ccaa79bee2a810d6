"""The durable sweep store: keys, round trips, crash/resume, shard+merge.

The load-bearing guarantees, each pinned here:

* equal specs can never produce distinct store keys (params are
  canonicalized on construction, however the spec was built);
* a cached result is byte-for-byte the result a fresh run computes
  (ints, floats, bools, strings, tuples, None all survive the JSONL
  round trip);
* a sweep interrupted at any prefix and resumed via the store yields
  results, aggregates, and store contents identical to an uninterrupted
  run — across worker counts and engines;
* a 2-host-style shard+merge of the same grid equals the single-host
  run, with nothing recomputed on replay.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.sim.batch import (
    TrialResult,
    TrialSpec,
    TrialStore,
    aggregate,
    default_chunksize,
    flood_min_trial,
    grid,
    merge_stores,
    record_digest,
    run_trials,
    select_results,
    shard,
    spec_key,
)


def _probe_task(spec: TrialSpec) -> TrialResult:
    """Deterministic task with every storable data type (picklable)."""
    return TrialResult(spec, spec.seed % 2 == 0, {
        "seed": spec.seed,
        "third": spec.seed / 3.0,
        "family": spec.family,
        "flag": spec.seed > 0,
        "pair": (spec.n, spec.family),
        "nothing": None,
    })


def _poison_task(spec: TrialSpec) -> TrialResult:
    """A task that must never run — proves replays come from the cache."""
    raise AssertionError(f"task executed for {spec} despite a full cache")


def _store_bytes(root: str) -> dict:
    """Every file under ``root`` as relpath -> bytes, for exact comparison."""
    contents = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


class TestSpecKeys:
    def test_direct_construction_canonicalizes_params(self):
        """Regression: unsorted direct construction == sorted TrialSpec.of."""
        direct = TrialSpec("cycle", 12, 3, (("zeta", 1), ("alpha", 2)))
        via_of = TrialSpec.of("cycle", 12, 3, zeta=1, alpha=2)
        assert direct == via_of
        assert direct.params == (("alpha", 2), ("zeta", 1))
        assert hash(direct) == hash(via_of)
        assert spec_key("t", direct) == spec_key("t", via_of)

    def test_list_pairs_normalize_to_tuples(self):
        spec = TrialSpec("cycle", 12, 3, (["b", 1], ["a", 2]))
        assert spec.params == (("a", 2), ("b", 1))
        assert hash(spec) == hash(TrialSpec.of("cycle", 12, 3, a=2, b=1))

    def test_key_depends_on_task_name_and_version(self):
        spec = TrialSpec.of("cycle", 12, 3, k=1)
        assert spec_key("a", spec) != spec_key("b", spec)
        assert spec_key("a", spec, version=1) != spec_key("a", spec, version=2)

    def test_key_distinguishes_specs(self):
        assert (spec_key("t", TrialSpec.of("cycle", 12, 3, k=1))
                != spec_key("t", TrialSpec.of("cycle", 12, 3, k=2)))

    def test_tuple_valued_params_are_keyable(self):
        a = TrialSpec.of("cycle", 12, 3, window=(2, 5))
        b = TrialSpec.of("cycle", 12, 3, window=(2, 6))
        assert spec_key("t", a) != spec_key("t", b)


class TestStoreRoundTrip:
    def test_put_get_is_identity(self, tmp_path):
        store = TrialStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        result = _probe_task(spec)
        store.put("t", spec, result)
        cached = store.get("t", spec)
        assert cached == result
        # Exact types, not just equality: bool stays bool, tuple stays
        # tuple, float stays float — aggregate() and the determinism
        # tests depend on it.
        assert isinstance(cached.data["seed"], int)
        assert not isinstance(cached.data["flag"], int) or \
            isinstance(cached.data["flag"], bool)
        assert isinstance(cached.data["pair"], tuple)
        assert isinstance(cached.data["third"], float)
        assert cached.data["nothing"] is None

    def test_reload_from_disk(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        TrialStore(tmp_path).put("t", spec, _probe_task(spec))
        reloaded = TrialStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get("t", spec) == _probe_task(spec)

    def test_miss_returns_none(self, tmp_path):
        store = TrialStore(tmp_path)
        assert store.get("t", TrialSpec.of("cycle", 12, 3)) is None

    def test_unstorable_data_raises(self, tmp_path):
        store = TrialStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        with pytest.raises(ConfigurationError, match="not storable"):
            store.put("t", spec, TrialResult(spec, True, {"x": object()}))

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        """A crash mid-append loses only the unacknowledged record."""
        store = TrialStore(tmp_path)
        specs = [TrialSpec.of("cycle", 12, s) for s in range(3)]
        for spec in specs:
            store.put("t", spec, _probe_task(spec))
        store.close()
        shard_dir = tmp_path / "shards"
        (path,) = list(shard_dir.iterdir())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "deadbeef", "task": "t", "ok": tr')
        reopened = TrialStore(tmp_path)
        assert len(reopened) == 3
        for spec in specs:
            assert reopened.get("t", spec) == _probe_task(spec)
        # And appending after the torn line still round-trips.
        extra = TrialSpec.of("cycle", 12, 99)
        reopened.put("t", extra, _probe_task(extra))
        assert TrialStore(tmp_path).get("t", extra) == _probe_task(extra)

    def test_put_is_idempotent(self, tmp_path):
        store = TrialStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        store.put("t", spec, _probe_task(spec))
        store.put("t", spec, _probe_task(spec))
        assert len(store) == 1

    def test_put_conflicting_result_raises(self, tmp_path):
        """Regression: a divergent payload for an existing key used to be
        silently dropped; it must raise like merge_stores' conflict rule."""
        store = TrialStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        store.put("t", spec, TrialResult(spec, True, {"x": 1}))
        with pytest.raises(ConfigurationError, match="conflicting"):
            store.put("t", spec, TrialResult(spec, True, {"x": 2}))
        with pytest.raises(ConfigurationError, match="conflicting"):
            store.put("t", spec, TrialResult(spec, False, {"x": 1}))
        # The stored record is untouched by the rejected puts.
        assert store.get("t", spec) == TrialResult(spec, True, {"x": 1})
        assert len(store) == 1

    def test_put_conflict_detected_across_reopen(self, tmp_path):
        """Disk-loaded records compare equal to identical fresh ones
        (idempotent re-put) and unequal to divergent ones (conflict)."""
        spec = TrialSpec.of("cycle", 12, 3)
        TrialStore(tmp_path).put("t", spec, _probe_task(spec))
        reopened = TrialStore(tmp_path)
        reopened.put("t", spec, _probe_task(spec))
        assert len(reopened) == 1
        with pytest.raises(ConfigurationError, match="conflicting"):
            reopened.put("t", spec, TrialResult(spec, True, {"seed": -1}))

    def test_describe_lists_tasks(self, tmp_path):
        store = TrialStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        store.put("beta", spec, _probe_task(spec))
        store.put("alpha", spec, _probe_task(spec))
        text = store.describe()
        assert "2 result(s)" in text
        assert text.index("alpha") < text.index("beta")


class TestRunTrialsWithStore:
    def test_fills_store_and_matches_cold_run(self, tmp_path):
        specs = grid(["cycle", "path"], [12], range(3), radius=12)
        cold = run_trials(flood_min_trial, specs, workers=1)
        store = TrialStore(tmp_path)
        warm = run_trials(flood_min_trial, specs, store=store)
        assert warm == cold
        assert len(store) == len(specs)

    def test_replay_never_executes_the_task(self, tmp_path):
        specs = [TrialSpec.of("cycle", 12, s) for s in range(4)]
        store = TrialStore(tmp_path)
        first = run_trials(_probe_task, specs, store=store, task_name="t")
        replay = run_trials(_poison_task, specs, store=store, task_name="t")
        assert replay == first

    def test_duplicate_specs_computed_once(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        store = TrialStore(tmp_path)
        results = run_trials(_probe_task, [spec, spec, spec], store=store)
        assert results == [_probe_task(spec)] * 3
        assert len(store) == 1

    def test_invalid_workers_rejected_even_on_warm_cache(self, tmp_path):
        """workers=0 must fail identically whether or not the cache is
        already full — cache state must not mask misconfiguration."""
        specs = [TrialSpec.of("cycle", 12, s) for s in range(3)]
        store = TrialStore(tmp_path)
        run_trials(_probe_task, specs, store=store, task_name="t")
        with pytest.raises(ConfigurationError, match="workers"):
            run_trials(_probe_task, specs, workers=0, store=store,
                       task_name="t")

    def test_shard_requires_store(self):
        with pytest.raises(ConfigurationError, match="store"):
            run_trials(_probe_task, [TrialSpec.of("cycle", 12, 3)],
                       shard=(0, 2))

    def test_default_task_name_is_module_qualified(self, tmp_path):
        store = TrialStore(tmp_path)
        run_trials(_probe_task, [TrialSpec.of("cycle", 12, 3)], store=store)
        (task_name,) = store.tasks()
        assert task_name.endswith("._probe_task")
        assert task_name.startswith(_probe_task.__module__)


class TestResumeDeterminism:
    """Satellite: kill-at-any-prefix + resume == uninterrupted, exactly."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("engine", ["fast", "array"])
    def test_interrupted_resume_is_byte_identical(self, tmp_path, workers,
                                                  engine):
        specs = grid(["cycle", "path"], [12], range(3), radius=12,
                     engine=engine)
        cold = run_trials(flood_min_trial, specs, workers=1)

        uninterrupted = TrialStore(tmp_path / "whole")
        whole = run_trials(flood_min_trial, specs, workers=workers,
                           store=uninterrupted)

        # Simulate a kill after an arbitrary prefix: only the first
        # trials reached the store, then the sweep reruns end to end.
        interrupted = TrialStore(tmp_path / "resumed")
        run_trials(flood_min_trial, specs[:4], workers=workers,
                   store=interrupted)
        resumed = run_trials(flood_min_trial, specs, workers=workers,
                             store=interrupted)

        assert whole == cold
        assert resumed == cold
        assert aggregate(resumed) == aggregate(cold)
        uninterrupted.close()
        interrupted.close()
        assert (_store_bytes(str(tmp_path / "resumed"))
                == _store_bytes(str(tmp_path / "whole")))

    def test_resume_at_every_prefix(self, tmp_path):
        specs = grid(["cycle"], [12], range(5), radius=12)
        cold = run_trials(flood_min_trial, specs, workers=1)
        for cut in range(len(specs) + 1):
            store = TrialStore(tmp_path / f"cut{cut}")
            run_trials(flood_min_trial, specs[:cut], store=store)
            assert run_trials(flood_min_trial, specs, store=store) == cold
            assert len(store) == len(specs)


class TestShardAndMerge:
    def test_shard_partitions_the_grid(self):
        specs = grid(["cycle", "path"], [12, 16], range(3))
        parts = [shard(specs, i, 3) for i in range(3)]
        seen = [spec for part in parts for spec in part]
        assert sorted(seen, key=specs.index) == specs
        assert sum(len(part) for part in parts) == len(specs)
        # Order within a slice follows grid order.
        assert parts[0] == specs[0::3]

    def test_shard_validates_bounds(self):
        specs = grid(["cycle"], [12], range(3))
        with pytest.raises(ConfigurationError):
            shard(specs, 3, 3)
        with pytest.raises(ConfigurationError):
            shard(specs, -1, 3)
        with pytest.raises(ConfigurationError):
            shard(specs, 0, 0)

    def test_shard_count_larger_than_grid_is_rejected(self):
        """Regression: count > len(specs) used to hand back silently
        empty slices; now it is a loud mis-sized-fleet error."""
        specs = grid(["cycle"], [12], range(3))
        with pytest.raises(ConfigurationError, match="exceeds the grid"):
            shard(specs, 0, 4)
        with pytest.raises(ConfigurationError, match="exceeds the grid"):
            shard([], 0, 1)
        # count == len(specs) is the boundary: one spec per slice.
        parts = [shard(specs, i, 3) for i in range(3)]
        assert [len(part) for part in parts] == [1, 1, 1]

    def test_two_host_shard_merge_equals_single_host(self, tmp_path):
        specs = grid(["cycle", "path"], [12], range(4), radius=12)
        cold = run_trials(flood_min_trial, specs, workers=1)

        host0 = TrialStore(tmp_path / "host0")
        host1 = TrialStore(tmp_path / "host1")
        partial = run_trials(flood_min_trial, specs, store=host0,
                             shard=(0, 2))
        run_trials(flood_min_trial, specs, store=host1, shard=(1, 2))
        assert len(host0) + len(host1) == len(specs)
        # Unowned positions come back as placeholders, never stored.
        assert [r for r in partial if r.data] == [r for i, r
                                                  in enumerate(partial)
                                                  if i % 2 == 0]

        merged = TrialStore(tmp_path / "merged")
        stats = merge_stores(merged, [host0, host1])
        assert stats == {"added": len(specs), "duplicate": 0}
        replay = run_trials(_poison_task, specs, store=merged,
                            task_name="repro.sim.batch.tasks.flood_min_trial")
        assert replay == cold
        assert aggregate(replay) == aggregate(cold)

    def test_merge_is_idempotent(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        src = TrialStore(tmp_path / "src")
        src.put("t", spec, _probe_task(spec))
        dest = TrialStore(tmp_path / "dest")
        assert merge_stores(dest, [src]) == {"added": 1, "duplicate": 0}
        assert merge_stores(dest, [src]) == {"added": 0, "duplicate": 1}
        assert len(dest) == 1

    def test_overlapping_host_stores_dedupe_at_merge(self, tmp_path):
        """A slice two hosts both computed merges once, not as a conflict."""
        specs = grid(["cycle"], [12], range(4), radius=12)
        cold = run_trials(flood_min_trial, specs, workers=1)
        whole = TrialStore(tmp_path / "whole")
        run_trials(flood_min_trial, specs, store=whole)
        half = TrialStore(tmp_path / "half")
        run_trials(flood_min_trial, specs, store=half, shard=(1, 2))

        merged = TrialStore(tmp_path / "merged")
        stats = merge_stores(merged, [half, whole])
        assert stats == {"added": len(specs), "duplicate": len(specs) // 2}
        replay = run_trials(_poison_task, specs, store=merged,
                            task_name="repro.sim.batch.tasks.flood_min_trial")
        assert replay == cold

    def test_merge_accepts_paths(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        TrialStore(tmp_path / "src").put("t", spec, _probe_task(spec))
        dest = TrialStore(tmp_path / "dest")
        merge_stores(dest, [str(tmp_path / "src")])
        assert dest.get("t", spec) == _probe_task(spec)

    def test_merge_refuses_empty_source_list(self, tmp_path):
        """Regression: merging zero sources used to "succeed" as a no-op,
        hiding globs/fleets that produced no stores."""
        dest = TrialStore(tmp_path / "dest")
        with pytest.raises(ConfigurationError, match="at least one"):
            merge_stores(dest, [])
        with pytest.raises(ConfigurationError, match="at least one"):
            merge_stores(dest, iter(()))
        assert len(dest) == 0

    def test_merge_refuses_missing_source(self, tmp_path):
        """A typo'd source path must fail loudly, not merge nothing."""
        dest = TrialStore(tmp_path / "dest")
        with pytest.raises(ConfigurationError, match="does not exist"):
            merge_stores(dest, [str(tmp_path / "no-such-store")])
        assert not (tmp_path / "no-such-store").exists()

    def test_merge_refuses_conflicting_records(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        a = TrialStore(tmp_path / "a")
        a.put("t", spec, TrialResult(spec, True, {"x": 1}))
        b = TrialStore(tmp_path / "b")
        b.put("t", spec, TrialResult(spec, False, {"x": 2}))
        dest = TrialStore(tmp_path / "dest")
        merge_stores(dest, [a])
        with pytest.raises(ConfigurationError, match="conflicting") as exc:
            merge_stores(dest, [b])
        message = str(exc.value)
        (stored,) = a.records()
        (incoming,) = b.records()
        assert spec_key("t", spec) in message
        assert record_digest(stored) in message
        assert record_digest(incoming) in message

    def test_conflict_names_key_and_both_digests(self, tmp_path):
        """Regression: the refusal must identify the first conflicting
        key and the digest of both payloads, so the diverging store copy
        can be found without replaying anything."""
        spec = TrialSpec.of("cycle", 8, 0)
        a = TrialStore(tmp_path / "a")
        a.put("t", spec, TrialResult(spec, True, {"rounds": 1}))
        b = TrialStore(tmp_path / "b")
        b.put("t", spec, TrialResult(spec, True, {"rounds": 2}))
        (stored,) = a.records()
        (incoming,) = b.records()
        assert record_digest(stored) != record_digest(incoming)
        with pytest.raises(ConfigurationError) as exc:
            merge_stores(a, [b])
        message = str(exc.value)
        assert spec_key("t", spec) in message
        assert record_digest(stored) in message
        assert record_digest(incoming) in message
        assert "disagree" in message


class TestAdaptiveChunksize:
    """Satellite: adaptive chunking must not reorder or change results."""

    def test_default_chunksize_formula(self):
        assert default_chunksize(64, 2) == 4
        assert default_chunksize(3, 8) == 1
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(1000, 4) == 31

    def test_adaptive_equals_chunksize_one(self):
        specs = grid(["cycle", "gnp-sparse"], [16], range(5), radius=12)
        adaptive = run_trials(flood_min_trial, specs, workers=4)
        one = run_trials(flood_min_trial, specs, workers=4, chunksize=1)
        serial = run_trials(flood_min_trial, specs, workers=1)
        assert adaptive == one == serial
        assert [r.spec for r in adaptive] == specs

    def test_adaptive_equals_chunksize_one_with_store(self, tmp_path):
        specs = grid(["cycle"], [12], range(6), radius=12)
        s1 = TrialStore(tmp_path / "one")
        s2 = TrialStore(tmp_path / "auto")
        one = run_trials(flood_min_trial, specs, workers=4, chunksize=1,
                         store=s1)
        auto = run_trials(flood_min_trial, specs, workers=4, store=s2)
        assert one == auto
        s1.close()
        s2.close()
        assert (_store_bytes(str(tmp_path / "one"))
                == _store_bytes(str(tmp_path / "auto")))


class TestSelectResults:
    def test_each_filter_keeps_insertion_order(self, tmp_path):
        specs = grid(["cycle", "path"], [8, 12], range(3))
        store = TrialStore(tmp_path)
        for task in ("a", "b"):
            run_trials(_probe_task, specs, store=store, task_name=task)
        fresh = [_probe_task(spec) for spec in specs]
        assert select_results(store) == fresh + fresh
        assert select_results(store, task="b") == fresh
        for field, value in (("family", "path"), ("n", 12), ("seed", 2)):
            picked = [r for r in fresh if getattr(r.spec, field) == value]
            assert picked
            assert select_results(store, task="a", **{field: value}) == picked
        assert select_results(store, task="b", family="cycle", n=8,
                              seed=1) == [_probe_task(TrialSpec.of(
                                  "cycle", 8, 1))]
        assert select_results(store, family="grid") == []


class TestExperimentsWithStore:
    def test_e06_resumes_from_store(self, tmp_path):
        from repro.analysis import EXPERIMENTS

        store = TrialStore(tmp_path)
        first = EXPERIMENTS["e06"](quick=True, seed=2, store=store)
        filled = len(store)
        assert filled > 0
        again = EXPERIMENTS["e06"](quick=True, seed=2, store=store)
        assert len(store) == filled  # pure cache replay
        assert again.render() == first.render()
        cold = EXPERIMENTS["e06"](quick=True, seed=2)
        assert cold.render() == first.render()

    def test_run_all_shard_mode_runs_only_sweeping_drivers(self, tmp_path):
        """Shard hosts must not burn time on drivers that store nothing."""
        from unittest import mock

        from repro.analysis import experiments

        calls = []

        def fake_driver(name):
            def driver(**kwargs):
                calls.append(name)
                return experiments.Table(title=name, rows=[])
            return driver

        registry = {name: fake_driver(name)
                    for name in experiments.EXPERIMENTS}
        with mock.patch.dict(experiments.EXPERIMENTS, registry,
                             clear=True):
            experiments.run_all(store=TrialStore(tmp_path), shard=(0, 2))
        assert sorted(calls) == sorted(experiments.SWEEPING)

    def test_e06_sharded_stores_merge_to_full_table(self, tmp_path):
        from repro.analysis import EXPERIMENTS

        host0 = TrialStore(tmp_path / "h0")
        host1 = TrialStore(tmp_path / "h1")
        EXPERIMENTS["e06"](quick=True, seed=2, store=host0, shard=(0, 2))
        EXPERIMENTS["e06"](quick=True, seed=2, store=host1, shard=(1, 2))
        merged = TrialStore(tmp_path / "merged")
        merge_stores(merged, [host0, host1])
        before = len(merged)
        table = EXPERIMENTS["e06"](quick=True, seed=2, store=merged)
        assert len(merged) == before
        assert table.render() == EXPERIMENTS["e06"](quick=True,
                                                    seed=2).render()


class TestStoreCLI:
    def test_list_and_merge_flags(self, tmp_path, capsys):
        from repro.analysis.cli import main

        spec = TrialSpec.of("cycle", 12, 3)
        TrialStore(tmp_path / "src").put("t", spec, _probe_task(spec))
        dest = str(tmp_path / "dest")
        assert main(["--store", dest, "--merge",
                     str(tmp_path / "src")]) == 0
        assert "1 added" in capsys.readouterr().out
        assert main(["--store", dest, "--list"]) == 0
        out = capsys.readouterr().out
        assert "1 result(s)" in out and "t: 1" in out

    def test_invalid_flag_combinations(self, tmp_path, capsys):
        from repro.analysis.cli import main

        assert main(["--shard-index", "0"]) == 2
        assert main(["--shard-index", "0", "--shard-count", "2"]) == 2
        assert main(["--merge", str(tmp_path / "src")]) == 2
        assert main(["--store", str(tmp_path / "s"),
                     "--shard-index", "2", "--shard-count", "2"]) == 2
        assert main(["--store", str(tmp_path / "s"), "--merge",
                     str(tmp_path / "no-such-store")]) == 2
        capsys.readouterr()

    def test_query_round_trip(self, tmp_path, capsys):
        from repro.analysis.cli import main

        root = tmp_path / "swept"
        specs = grid(["cycle", "path"], [8, 12], range(4))
        run_trials(_probe_task, specs, store=TrialStore(root), task_name="t")
        assert main(["--store", str(root), "--query", "family=path",
                     "n=12"]) == 0
        out = capsys.readouterr().out
        assert "4 of 16 result(s) match: family=path n=12" in out
        assert "query family=path n=12" in out
        rows = [line.split() for line in out.splitlines()
                if line.startswith("path")]
        assert rows == [["path", "12", "4", "0.5", "0", "1.5", "3",
                         "0", "0.5", "1"]]

    @pytest.mark.parametrize("command", [["--query", "family=cycle"],
                                         ["--list"]])
    def test_read_only_commands_refuse_a_missing_store(self, tmp_path,
                                                       capsys, command):
        """A typo'd --store used to be created empty and reported as
        "0 of 0 result(s)" with exit 0."""
        from repro.analysis.cli import main

        typo = tmp_path / "typo" / "dir"
        assert main(["--store", str(typo), *command]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not typo.exists()
        assert not (tmp_path / "typo").exists()
