"""Property-based tests: event-stream conservation and scenario composition.

Two families of invariants:

* **Event conservation** — across random traces, schedulers and mid-run
  reconfigurations, every ``QueryArrived`` is matched by exactly one
  ``QueryCompleted`` (the simulator never drops work silently), dispatch
  counts line up, and requeued queries are re-dispatched exactly once more.
* **Scenario composition** — compiling random phase lists preserves the
  per-phase query counts and produces monotone arrival times.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.hooks import (
    EventLog,
    QueryArrived,
    QueryCompleted,
    QueryDispatched,
    QueryRequeued,
    ReconfigFinished,
    ReconfigStarted,
)
from repro.workload.scenario import Phase, Scenario
from tests.sim.helpers import MODEL, linear_profile, make_instances, make_trace

PROFILE = linear_profile({1: 0.4, 3: 0.2, 7: 0.1})


def make_scheduler(name):
    return {
        "fifs": FifsScheduler(),
        "elsa": ElsaScheduler(PROFILE),
        "least-loaded": LeastLoadedScheduler(),
    }[name]


arrival_lists = st.lists(
    st.tuples(st.floats(0.0, 10.0), st.integers(1, 32)), min_size=1, max_size=40
).map(lambda items: sorted(items, key=lambda x: x[0]))

size_lists = st.lists(st.sampled_from([1, 3, 7]), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arrivals=arrival_lists,
    scheduler=st.sampled_from(["fifs", "elsa", "least-loaded"]),
    sizes=size_lists,
)
def test_every_arrival_completes_exactly_once(arrivals, scheduler, sizes):
    log = EventLog()
    simulator = InferenceServerSimulator(
        instances=make_instances(sizes),
        profiles={MODEL: PROFILE},
        scheduler=make_scheduler(scheduler),
        observers=[log],
    )
    result = simulator.run(make_trace(arrivals))

    arrived = log.of_type(QueryArrived)
    completed = log.of_type(QueryCompleted)
    assert len(arrived) == len(arrivals)
    assert len(completed) == len(arrivals)
    # exactly-once: the completed multiset equals the arrived multiset
    assert sorted(id(e.query) for e in arrived) == sorted(
        id(e.query) for e in completed
    )
    # without reconfigurations every query is dispatched exactly once
    assert len(log.of_type(QueryDispatched)) == len(arrivals)
    assert result.statistics.completed_queries == len(arrivals)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arrivals=arrival_lists,
    scheduler=st.sampled_from(["fifs", "elsa", "least-loaded"]),
    old_sizes=size_lists,
    new_sizes=size_lists,
    cut=st.floats(0.0, 10.0),
    cost=st.floats(0.0, 3.0),
)
def test_conservation_across_mid_run_reconfiguration(
    arrivals, scheduler, old_sizes, new_sizes, cut, cost
):
    log = EventLog()
    simulator = InferenceServerSimulator(
        instances=make_instances(old_sizes),
        profiles={MODEL: PROFILE},
        scheduler=make_scheduler(scheduler),
        observers=[log],
    )
    simulator.begin()
    simulator.submit_trace(make_trace(arrivals))
    simulator.run_until(cut)
    simulator.reconfigure(make_instances(new_sizes), reconfig_cost=cost)
    result = simulator.finish()

    arrived = log.of_type(QueryArrived)
    completed = log.of_type(QueryCompleted)
    requeued = log.of_type(QueryRequeued)
    # conservation: every arrival completes exactly once, even through the
    # drain / downtime / backlog-absorption cycle
    assert len(arrived) == len(arrivals)
    assert sorted(id(e.query) for e in arrived) == sorted(
        id(e.query) for e in completed
    )
    # a query requeued off a worker's local queue is dispatched twice; one
    # pulled back from the central queue (instance_id None) only once
    worker_requeues = sum(1 for e in requeued if e.instance_id is not None)
    assert len(log.of_type(QueryDispatched)) == len(arrivals) + worker_requeues
    assert len(log.of_type(ReconfigStarted)) == 1
    assert len(log.of_type(ReconfigFinished)) == 1
    (record,) = result.reconfigurations
    assert record.finished >= record.drain_completed >= record.started
    assert result.statistics.completed_queries == len(arrivals)


phases_strategy = st.lists(
    st.tuples(
        st.floats(0.5, 5.0),    # duration
        st.floats(1.0, 60.0),   # rate
        st.floats(1.0, 16.0),   # median batch
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phases=phases_strategy, seed=st.integers(0, 2**16))
def test_scenario_composition_preserves_counts_and_monotonicity(phases, seed):
    scenario = Scenario(
        name="prop",
        model=MODEL,
        phases=tuple(
            Phase(duration=d, rate_qps=r, median_batch=m) for d, r, m in phases
        ),
        seed=seed,
    )
    trace = scenario.generate()
    arrivals = [q.arrival_time for q in trace]
    # monotone arrival times, all within the scenario span
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t < scenario.duration for t in arrivals)
    # total count composes from the per-phase counts (phases partition time)
    boundaries = scenario.phase_boundaries() + [scenario.duration]
    per_phase = [
        sum(1 for t in arrivals if boundaries[i] <= t < boundaries[i + 1])
        for i in range(len(scenario.phases))
    ]
    assert sum(per_phase) == len(trace)
    # ids dense, batches within each phase's max_batch
    assert [q.query_id for q in trace] == list(range(len(trace)))
    assert all(1 <= q.batch <= 32 for q in trace)
