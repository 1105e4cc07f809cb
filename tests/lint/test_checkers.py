"""True-positive / true-negative fixtures for every repro.lint checker.

Each checker gets at least one snippet that must fire and one that must
stay silent, exercised through :func:`repro.lint.runner.lint_source` — the
same machinery the CLI runs, minus the filesystem.
"""

import textwrap

import pytest

from repro.lint.runner import lint_source
from repro.lint.zones import zones_for


def lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), **kwargs)


def codes(findings):
    return [f.code for f in findings]


# --------------------------------------------------------------------------- #
# zone inference
# --------------------------------------------------------------------------- #


class TestZones:
    def test_sim_is_determinism_and_hot_path(self):
        zones = zones_for("sim/cluster.py")
        assert "determinism" in zones
        assert "hot-path" in zones

    def test_daemon_is_asyncio_only(self):
        assert zones_for("daemon/api.py") == frozenset({"asyncio"})

    def test_hooks_file_is_in_hooks_zone(self):
        assert "hooks" in zones_for("sim/hooks.py")

    def test_models_has_no_zones(self):
        assert zones_for("models/resnet.py") == frozenset()

    def test_exact_file_membership(self):
        assert "pool" in zones_for("analysis/sweep.py")
        assert "pool" not in zones_for("analysis/reporting.py")
        assert "hot-path" in zones_for("core/schedulers.py")
        assert "hot-path" not in zones_for("core/registry.py")


# --------------------------------------------------------------------------- #
# DET001 — entropy sources
# --------------------------------------------------------------------------- #


class TestDet001:
    def test_wall_clock_fires(self):
        findings = lint(
            """\
            import time

            def stamp():
                return time.time()
            """,
            rel="sim/clock.py",
            select=["DET001"],
        )
        assert codes(findings) == ["DET001"]
        assert "time.time" in findings[0].message

    def test_import_alias_resolved(self):
        findings = lint(
            """\
            from time import time as now

            def stamp():
                return now()
            """,
            rel="core/clock.py",
            select=["DET001"],
        )
        assert codes(findings) == ["DET001"]

    def test_module_level_random_fires(self):
        findings = lint(
            """\
            import random

            def pick(items):
                return random.choice(items)
            """,
            rel="workload/pick.py",
            select=["DET001"],
        )
        assert codes(findings) == ["DET001"]

    def test_unseeded_default_rng_fires(self):
        findings = lint(
            """\
            import numpy as np

            def make_rng():
                return np.random.default_rng()
            """,
            rel="sim/rng.py",
            select=["DET001"],
        )
        assert codes(findings) == ["DET001"]
        assert "seed" in findings[0].message

    def test_seeded_default_rng_is_clean(self):
        findings = lint(
            """\
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """,
            rel="sim/rng.py",
            select=["DET001"],
        )
        assert findings == []

    def test_legacy_np_random_fires(self):
        findings = lint(
            """\
            import numpy as np

            def draw():
                return np.random.rand(3)
            """,
            rel="sim/rng.py",
            select=["DET001"],
        )
        assert codes(findings) == ["DET001"]

    def test_outside_determinism_zones_is_exempt(self):
        source = """\
            import time

            def stamp():
                return time.time()
            """
        assert lint(source, rel="models/profile.py", select=["DET001"]) == []
        assert lint(source, rel="daemon/api.py", select=["DET001"]) == []

    def test_pragma_suppresses(self):
        findings = lint(
            """\
            import time

            def stamp():
                return time.time()  # lint: ignore[DET001]
            """,
            rel="sim/clock.py",
            select=["DET001"],
        )
        assert findings == []

    def test_pragma_for_other_code_does_not_suppress(self):
        findings = lint(
            """\
            import time

            def stamp():
                return time.time()  # lint: ignore[DET002]
            """,
            rel="sim/clock.py",
            select=["DET001"],
        )
        assert codes(findings) == ["DET001"]

    def test_bare_pragma_suppresses_everything(self):
        findings = lint(
            """\
            import time

            def stamp():
                return time.time()  # lint: ignore
            """,
            rel="sim/clock.py",
            select=["DET001"],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# DET002 — set-order consumption
# --------------------------------------------------------------------------- #


class TestDet002:
    def test_for_loop_over_set_fires(self):
        findings = lint(
            """\
            def dispatch(queries):
                pending = set(queries)
                for query in pending:
                    query.run()
            """,
            rel="sim/cluster.py",
            select=["DET002"],
        )
        assert codes(findings) == ["DET002"]

    def test_comprehension_over_set_fires(self):
        findings = lint(
            """\
            def order(ids):
                live = {i for i in ids}
                return [i * 2 for i in live]
            """,
            rel="core/schedulers.py",
            select=["DET002"],
        )
        assert codes(findings) == ["DET002"]

    def test_min_over_set_fires(self):
        findings = lint(
            """\
            def pick(workers):
                idle = set(workers)
                return min(idle)
            """,
            rel="sim/cluster.py",
            select=["DET002"],
        )
        assert codes(findings) == ["DET002"]

    def test_set_pop_fires(self):
        findings = lint(
            """\
            class Pool:
                def __init__(self):
                    self.idle = set()

                def take(self):
                    return self.idle.pop()
            """,
            rel="sim/worker.py",
            select=["DET002"],
        )
        assert codes(findings) == ["DET002"]

    def test_annotated_set_attribute_tracked(self):
        findings = lint(
            """\
            from typing import Set

            class Tracker:
                def __init__(self):
                    self.live: Set[int] = set()

                def snapshot(self):
                    return list(self.live)
            """,
            rel="sim/tracker.py",
            select=["DET002"],
        )
        assert codes(findings) == ["DET002"]

    def test_sorted_linearisation_is_clean(self):
        findings = lint(
            """\
            def dispatch(queries):
                pending = set(queries)
                for query in sorted(pending):
                    query.run()
            """,
            rel="sim/cluster.py",
            select=["DET002"],
        )
        assert findings == []

    def test_membership_and_mutation_are_clean(self):
        findings = lint(
            """\
            def track(seen, item):
                if item in seen:
                    return False
                seen.add(item)
                return True
            """,
            rel="sim/cluster.py",
            select=["DET002"],
        )
        assert findings == []

    def test_list_iteration_is_clean(self):
        findings = lint(
            """\
            def dispatch(queries):
                pending = list(queries)
                for query in pending:
                    query.run()
            """,
            rel="sim/cluster.py",
            select=["DET002"],
        )
        assert findings == []

    def test_outside_hot_path_is_exempt(self):
        findings = lint(
            """\
            def dispatch(queries):
                pending = set(queries)
                for query in pending:
                    query.run()
            """,
            rel="analysis/reporting.py",
            select=["DET002"],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# DET003 — id()/hash() ordering
# --------------------------------------------------------------------------- #


class TestDet003:
    def test_key_id_fires(self):
        findings = lint(
            """\
            def order(items):
                return sorted(items, key=id)
            """,
            rel="sim/order.py",
            select=["DET003"],
        )
        assert codes(findings) == ["DET003"]
        assert "address" in findings[0].message

    def test_id_inside_lambda_key_fires(self):
        findings = lint(
            """\
            def order(items):
                return sorted(items, key=lambda x: (x.rank, id(x)))
            """,
            rel="core/order.py",
            select=["DET003"],
        )
        assert codes(findings) == ["DET003"]

    def test_grouping_by_id_fires(self):
        findings = lint(
            """\
            def group(items):
                table = {}
                for item in items:
                    table[id(item)] = item
                return table
            """,
            rel="autoscale/group.py",
            select=["DET003"],
        )
        assert codes(findings) == ["DET003"]

    def test_stable_key_is_clean(self):
        findings = lint(
            """\
            def order(items):
                return sorted(items, key=lambda x: x.instance_id)
            """,
            rel="sim/order.py",
            select=["DET003"],
        )
        assert findings == []

    def test_id_outside_ordering_is_clean(self):
        # id() as an opaque token (not an ordering key) is allowed
        findings = lint(
            """\
            def token(obj):
                return id(obj)
            """,
            rel="sim/token.py",
            select=["DET003"],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# CONC001 — asyncio hygiene
# --------------------------------------------------------------------------- #


class TestConc001:
    def test_blocking_sleep_in_coroutine_fires(self):
        findings = lint(
            """\
            import time

            async def poll():
                time.sleep(0.1)
            """,
            rel="daemon/api.py",
            select=["CONC001"],
        )
        assert codes(findings) == ["CONC001"]
        assert "to_thread" in findings[0].message

    def test_open_in_coroutine_fires(self):
        findings = lint(
            """\
            async def dump(path, payload):
                with open(path, "w") as stream:
                    stream.write(payload)
            """,
            rel="daemon/jobs.py",
            select=["CONC001"],
        )
        assert codes(findings) == ["CONC001"]

    def test_pathlib_write_in_coroutine_fires(self):
        findings = lint(
            """\
            async def dump(path, payload):
                path.write_text(payload)
            """,
            rel="daemon/jobs.py",
            select=["CONC001"],
        )
        assert codes(findings) == ["CONC001"]

    def test_to_thread_offload_is_clean(self):
        findings = lint(
            """\
            import asyncio
            import time

            async def poll():
                await asyncio.to_thread(time.sleep, 0.1)
            """,
            rel="daemon/api.py",
            select=["CONC001"],
        )
        assert findings == []

    def test_blocking_in_sync_def_is_clean(self):
        findings = lint(
            """\
            import time

            def poll():
                time.sleep(0.1)
            """,
            rel="daemon/api.py",
            select=["CONC001"],
        )
        assert findings == []

    def test_nested_sync_def_not_attributed_to_coroutine(self):
        # the blocking call lives in a nested sync helper, not the coroutine
        findings = lint(
            """\
            import time

            async def poll():
                def helper():
                    time.sleep(0.1)
                return helper
            """,
            rel="daemon/api.py",
            select=["CONC001"],
        )
        assert findings == []

    def test_bare_write_to_guarded_field_fires(self):
        findings = lint(
            """\
            import asyncio

            class Admission:
                def __init__(self):
                    self._cond = asyncio.Condition()
                    self._queue = []

                async def admit(self, job):
                    async with self._cond:
                        self._queue.append(job)
                        self._cond.notify_all()

                def sneak(self, job):
                    self._queue.append(job)
            """,
            rel="daemon/api.py",
            select=["CONC001"],
        )
        assert codes(findings) == ["CONC001"]
        assert "_queue" in findings[0].message
        assert "sneak" in findings[0].message

    def test_all_writes_guarded_is_clean(self):
        findings = lint(
            """\
            import asyncio

            class Admission:
                def __init__(self):
                    self._cond = asyncio.Condition()
                    self._queue = []

                async def admit(self, job):
                    async with self._cond:
                        self._queue.append(job)

                async def drain(self):
                    async with self._cond:
                        self._queue.clear()
            """,
            rel="daemon/api.py",
            select=["CONC001"],
        )
        assert findings == []

    def test_outside_asyncio_zone_is_exempt(self):
        findings = lint(
            """\
            import time

            async def poll():
                time.sleep(0.1)
            """,
            rel="analysis/poll.py",
            select=["CONC001"],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# CONC002 — pool pickling
# --------------------------------------------------------------------------- #


class TestConc002:
    def test_pool_without_getstate_fires(self):
        findings = lint(
            """\
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def __init__(self):
                    self._pool = ProcessPoolExecutor(max_workers=2)
            """,
            rel="analysis/sweep.py",
            select=["CONC002"],
        )
        assert codes(findings) == ["CONC002"]
        assert "_pool" in findings[0].message
        assert "__getstate__" in findings[0].message

    def test_getstate_missing_the_attr_fires(self):
        findings = lint(
            """\
            import threading
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def __init__(self):
                    self._pool = ProcessPoolExecutor()
                    self._lock = threading.Lock()

                def __getstate__(self):
                    state = self.__dict__.copy()
                    state["_pool"] = None
                    return state
            """,
            rel="analysis/sweep.py",
            select=["CONC002"],
        )
        assert codes(findings) == ["CONC002"]
        assert "_lock" in findings[0].message

    def test_getstate_stripping_everything_is_clean(self):
        findings = lint(
            """\
            import threading
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def __init__(self):
                    self._pool = ProcessPoolExecutor()
                    self._lock = threading.Lock()

                def __getstate__(self):
                    state = self.__dict__.copy()
                    state["_pool"] = None
                    state["_lock"] = None
                    return state
            """,
            rel="analysis/sweep.py",
            select=["CONC002"],
        )
        assert findings == []

    def test_dataclass_annotation_detected(self):
        findings = lint(
            """\
            from dataclasses import dataclass
            from typing import Optional
            from concurrent.futures import ProcessPoolExecutor

            @dataclass
            class Runner:
                n_jobs: int = 1
                _pool: Optional[ProcessPoolExecutor] = None
            """,
            rel="autoscale/planner.py",
            select=["CONC002"],
        )
        assert codes(findings) == ["CONC002"]

    def test_word_boundary_does_not_match_fleet_event(self):
        # `FleetEvent` must not be mistaken for a threading Event
        findings = lint(
            """\
            from dataclasses import dataclass

            @dataclass
            class Row:
                event: "FleetEvent" = None
            """,
            rel="analysis/sweep.py",
            select=["CONC002"],
        )
        assert findings == []

    def test_plain_state_is_clean(self):
        findings = lint(
            """\
            class Runner:
                def __init__(self, n_jobs):
                    self.n_jobs = n_jobs
                    self.results = []
            """,
            rel="analysis/sweep.py",
            select=["CONC002"],
        )
        assert findings == []

    def test_outside_pool_zone_is_exempt(self):
        findings = lint(
            """\
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def __init__(self):
                    self._pool = ProcessPoolExecutor()
            """,
            rel="analysis/reporting.py",
            select=["CONC002"],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# HOOK001 — hook exhaustiveness
# --------------------------------------------------------------------------- #

_HOOKS_SKELETON = """\
    class SimEvent:
        pass

    class QueryArrived(SimEvent):
        pass

    class QueryCompleted(SimEvent):
        pass

    class SimulationObserver:
        def on_query_arrived(self, event):
            pass

        def on_query_completed(self, event):
            pass

    _HANDLERS = {{
        QueryArrived: "on_query_arrived",
        {extra_entries}
    }}
    """


class TestHook001:
    def _module(self, extra_entries="", tail=""):
        return textwrap.dedent(_HOOKS_SKELETON).format(
            extra_entries=extra_entries
        ) + textwrap.dedent(tail)

    def test_event_without_table_entry_fires(self):
        findings = lint_source(
            self._module(), rel="sim/hooks.py", select=["HOOK001"]
        )
        assert codes(findings) == ["HOOK001"]
        assert "QueryCompleted" in findings[0].message

    def test_complete_table_is_clean(self):
        findings = lint_source(
            self._module(extra_entries='QueryCompleted: "on_query_completed",'),
            rel="sim/hooks.py",
            select=["HOOK001"],
        )
        assert findings == []

    def test_handler_missing_on_base_fires(self):
        findings = lint_source(
            self._module(extra_entries='QueryCompleted: "on_nonexistent",'),
            rel="sim/hooks.py",
            select=["HOOK001"],
        )
        assert codes(findings) == ["HOOK001"]
        assert "on_nonexistent" in findings[0].message

    def test_missing_handlers_table_fires(self):
        findings = lint_source(
            "class SimEvent:\n    pass\n",
            rel="sim/hooks.py",
            select=["HOOK001"],
        )
        assert codes(findings) == ["HOOK001"]
        assert "_HANDLERS" in findings[0].message

    def test_only_applies_to_hooks_module(self):
        findings = lint_source(
            self._module(), rel="sim/cluster.py", select=["HOOK001"]
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# TYP001 — typed-zone annotations
# --------------------------------------------------------------------------- #


class TestTyp001:
    def test_unannotated_def_fires_twice(self):
        findings = lint(
            """\
            def scale(value, factor):
                return value * factor
            """,
            rel="core/math.py",
            select=["TYP001"],
        )
        assert codes(findings) == ["TYP001", "TYP001"]
        messages = " ".join(f.message for f in findings)
        assert "'value'" in messages
        assert "return annotation" in messages

    def test_fully_annotated_is_clean(self):
        findings = lint(
            """\
            def scale(value: float, factor: float = 2.0) -> float:
                return value * factor
            """,
            rel="core/math.py",
            select=["TYP001"],
        )
        assert findings == []

    def test_self_is_exempt_but_cls_on_staticmethod_is_not(self):
        findings = lint(
            """\
            class Box:
                def get(self) -> int:
                    return 1

                @staticmethod
                def make(self) -> "Box":
                    return Box()
            """,
            rel="gpu/box.py",
            select=["TYP001"],
        )
        assert codes(findings) == ["TYP001"]
        assert "make" in findings[0].message

    def test_star_args_need_annotations(self):
        findings = lint(
            """\
            def collect(*items, **extra) -> list:
                return list(items)
            """,
            rel="autoscale/collect.py",
            select=["TYP001"],
        )
        assert codes(findings) == ["TYP001"]
        assert "*items" in findings[0].message
        assert "**extra" in findings[0].message

    def test_overload_stubs_skipped(self):
        findings = lint(
            """\
            from typing import overload

            @overload
            def get(key: int): ...

            @overload
            def get(key: str): ...

            def get(key: object) -> object:
                return key
            """,
            rel="core/get.py",
            select=["TYP001"],
        )
        assert findings == []

    def test_outside_typed_zone_is_exempt(self):
        findings = lint(
            """\
            def scale(value, factor):
                return value * factor
            """,
            rel="workload/math.py",
            select=["TYP001"],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# select / ignore plumbing
# --------------------------------------------------------------------------- #


class TestSelection:
    SOURCE = """\
        import time

        def stamp(when):
            return time.time()
        """

    def test_ignore_drops_a_checker(self):
        findings = lint(
            self.SOURCE, rel="core/clock.py", ignore=["TYP001"]
        )
        assert codes(findings) == ["DET001"]

    def test_select_and_ignore_compose(self):
        findings = lint(
            self.SOURCE,
            rel="core/clock.py",
            select=["DET001", "TYP001"],
            ignore=["DET001"],
        )
        assert codes(findings) == ["TYP001", "TYP001"]

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="NOPE999"):
            lint(self.SOURCE, rel="core/clock.py", select=["NOPE999"])

    def test_codes_are_case_insensitive(self):
        findings = lint(self.SOURCE, rel="core/clock.py", select=["det001"])
        assert codes(findings) == ["DET001"]
