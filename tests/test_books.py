"""Books that balance, at the end of every sub-run of the 14-cell matrix at
seeds 42 and 7:

- every link has sent each frame once: delivered, dropped, or in flight;
- the energy ledger holds what the devices' budgets lost;
- every interaction old enough that its exchanges must have ended
  (started before the run's end minus the exchange lifetime) has an
  outcome: completed or timed out, never stuck.

Each sub-run is built once, with `run_subrun`, for its three checks.
"""

import pytest

from guardsim.coap_lite import TxState
from guardsim.harness import MATRIX_CELLS, SimConfig, run_subrun

SUBRUNS = [(seed, scenario, attack, subrun)
           for seed in (42, 7)
           for scenario, attack in MATRIX_CELLS
           for subrun in ("setup", "steady")]


@pytest.fixture(scope="module", params=SUBRUNS,
                ids=["-".join(map(str, p)) for p in SUBRUNS])
def finished(request):
    seed, scenario, attack, subrun = request.param
    cfg = SimConfig()
    cfg.seed = seed
    return cfg, run_subrun(cfg, scenario, attack, subrun)


def test_every_link_accounts_for_every_frame(finished):
    _, sub = finished
    links = [link for node in sub.handles.world.nodes.values()
             for link in node.links.values()]
    assert links
    for link in links:
        assert link.n_sent == (link.n_delivered + link.n_dropped
                               + len(link._in_flight)), link.name


def test_ledger_total_is_what_the_budgets_lost(finished):
    cfg, sub = finished
    lost = sum(cfg.energy.budget - node.energy.remaining
               for node in sub.handles.world.nodes.values()
               if node.energy is not None)
    # The smallest drain, one received byte, is 2e-5: far above the
    # rounding of 50,000 minus a run's drains.
    assert sub.handles.world.ledger.total == pytest.approx(lost, abs=1e-6)


def test_every_old_enough_interaction_resolved(finished):
    cfg, sub = finished
    lifetime = TxState(cfg.coap.base_timeout_ms,
                       cfg.coap.retransmit_limit).lifetime_ms
    old = [i for i in sub.handles.client.interactions
           if i.t_start < sub.run_end_ms - lifetime]
    assert old
    assert [(i.kind, i.t_start) for i in old if i.outcome is None] == []
