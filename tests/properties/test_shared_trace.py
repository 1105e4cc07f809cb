"""Property: one trace object serves any number of runs, open at once.

A :class:`~repro.workload.query.Query` is the request alone; each run keeps
its outcomes in its own columns.  Two or three runs with different
schedulers replay one trace object and advance alternately at random
``run_until`` cuts.  One of them may submit an extra query first, which
shifts its rows against the others', and one may crash and restore a worker.
Each run must give exactly the records of the same run driven alone, and
the trace must come out unchanged.
"""

from hypothesis import given, settings, strategies as st

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.faults.retry import RetryPolicy
from repro.sim.cluster import InferenceServerSimulator
from repro.workload.query import Query
from repro.workload.trace import QueryTrace
from tests.sim.helpers import MODEL, linear_profile, make_instances

PROFILE = linear_profile({1: 0.004, 3: 0.002, 7: 0.001})
POLICIES = {
    "elsa": lambda: ElsaScheduler(PROFILE),
    "fifs": FifsScheduler,
    "least-loaded": LeastLoadedScheduler,
}
#: crash worker 1 at the first time, restore it at the second
CRASH = (0.02, 0.06)


def outcomes(result):
    return [
        (
            q.query_id,
            q.dispatch_time,
            q.start_time,
            q.finish_time,
            q.instance_id,
            q.retries,
            q.fail_time,
        )
        for q in result.queries
    ]


class Run:
    """One open run over the shared trace, with its own control actions."""

    def __init__(self, policy, trace, extra, crash):
        self.simulator = InferenceServerSimulator(
            instances=make_instances((1, 3, 7)),
            profiles={MODEL: PROFILE},
            scheduler=POLICIES[policy](),
        )
        self.simulator.begin()
        if extra:
            self.simulator.submit(Query(10_000, MODEL, 2, 0.0, 0.05))
        self.simulator.submit_trace(trace)
        self.actions = []
        if crash:
            retry = RetryPolicy(max_retries=1)
            self.actions = [
                (CRASH[0], lambda simulator: simulator.crash_worker(1, retry)),
                (CRASH[1], lambda simulator: simulator.restore_worker(1)),
            ]

    def advance(self, until):
        while self.actions and (until is None or self.actions[0][0] <= until):
            due, action = self.actions.pop(0)
            self.simulator.run_until(due)
            action(self.simulator)
        self.simulator.run_until(until)

    def finish(self):
        self.advance(None)
        return self.simulator.finish()


arrivals = st.lists(
    st.tuples(st.floats(0.0, 0.004), st.integers(1, 8)), min_size=1, max_size=40
)


@settings(max_examples=100, deadline=None)
@given(
    spec=arrivals,
    policies=st.permutations(sorted(POLICIES)).flatmap(
        lambda order: st.integers(2, 3).map(lambda count: order[:count])
    ),
    crash=st.booleans(),
    cuts=st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 0.15)), max_size=12),
)
def test_open_runs_share_one_trace(spec, policies, crash, cuts):
    queries, now = [], 0.0
    for gap, batch in spec:
        now += gap
        queries.append(Query(len(queries), MODEL, batch, now, 0.01))
    trace = QueryTrace(tuple(queries))
    before = repr(trace)

    def open_run(index):
        # the first run shifts its rows by an extra query, the last may crash
        last = index == len(policies) - 1
        return Run(policies[index], trace, extra=index == 0, crash=crash and last)

    alone = [open_run(index).finish() for index in range(len(policies))]
    shared = [open_run(index) for index in range(len(policies))]
    for index, cut in cuts:
        shared[index % len(shared)].advance(cut)
    results = [run.finish() for run in shared]

    for result, reference in zip(results, alone):
        assert outcomes(result) == outcomes(reference)
        assert result.statistics == reference.statistics
    assert repr(trace) == before
    assert Query.__slots__ == ("query_id", "model", "batch", "arrival_time", "sla_target")
