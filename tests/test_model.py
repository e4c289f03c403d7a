"""The guards' theoretical capability against a flood, as a model that the
simulated flood cells must match.

A flood cell's attack-attributable drain follows from its config alone:
which token bucket binds the frames that reach the server, the rate that
bucket admits, and what one admitted frame costs the server. Each
expectation and each tolerance below is derived from the config and the
bucket arithmetic; none is read from a simulated figure.
"""

import math

import pytest

from guardsim.actors import FloodAttacker
from guardsim.coap_lite import message_size
from guardsim.harness import SimConfig, config_from_dict, run_cell
from guardsim.netsim import World

FLOODS = ("blind_flood", "distributed_flood")
SUBRUNS = 2  # the flood runs through a cell's setup and steady sub-runs


def frame_cost(config):
    """Energy one admitted flood frame drains from the server: half a key
    exchange for its `edhoc_m1`, the per-message cost and its bytes."""
    frame = FloodAttacker(World(0), 1.0, 1, ["srv"], 0, 1)._build_message()
    energy = config.energy
    return (0.5 * energy.cost_edhoc + energy.cost_per_msg
            + message_size(frame) * energy.cost_per_rx_byte)


class Model:
    """The bucket that binds a flood cell, and the drain it lets through.

    The flood's frames arrive far faster than the bucket refills, so each
    token is spent as soon as it accrues. A sub-run of `T` seconds then
    admits the bucket's initial burst plus one frame per token that accrues
    while the flood runs: at most `burst + ceil(rate * T) - 1`, since the
    token that accrues `T` after the first admission comes after the
    flood's last frame. It admits fewer when
    - a frame must pass two buckets: the last token of the binding one can
      wait for a frame that the other also admits (one frame a sub-run);
    - the client's frames pass the same bucket: its warmup can leave the
      bucket empty when the flood starts (`burst`), and it takes its share
      of the tokens, its frame rate over the flood's and its own.
    """

    def __init__(self, config, scenario, attack):
        attacks = config.attacks
        if attack == "blind_flood":
            sources, rate_each = 1, attacks.blind_rate
        else:
            sources, rate_each = (attacks.distributed_sources,
                                  attacks.distributed_rate)
        self.offered = rate_each * sources
        if scenario == "exemptions":
            # Half the frames target the guard's own address, where they
            # are challenged and never forwarded; the other half target
            # the server and pass the guard's `non_proxy` buckets.
            self.offered /= 2
            spec = config.guard.non_proxy_bucket
            buckets = {
                "non_proxy aggregate": (spec.aggregate_rate,
                                        spec.aggregate_burst),
                "non_proxy per source": (spec.per_source_rate * sources,
                                         spec.per_source_burst * sources)}
            self.gates, shared = 2, False
        elif scenario == "baseline-throttled":
            throttle = config.baseline_throttle
            buckets = {"router": (throttle.rate_per_s, throttle.burst)}
            self.gates, shared = 1, True
        elif scenario == "fullguard":
            # The server's tunnel end lets in nothing but tunnel traffic,
            # whatever the flood's rate.
            buckets = {"tunnel end": (0.0, 0)}
            self.gates, shared = 1, False
        else:
            raise ValueError(f"no flood bucket in {scenario!r}")
        self.binding = min(buckets, key=lambda name: buckets[name][0])
        self.rate = min(self.offered,
                        *(rate for rate, _ in buckets.values()))
        self.burst = min(burst for _, burst in buckets.values())
        # On average the client sends at most 1 + retransmit_limit frames
        # per request interval: each request goes out at most that often,
        # and the setup loop's key exchanges go out less often.
        client_rate = ((1 + config.coap.retransmit_limit) * 1000
                       / config.client.request_interval_ms)
        self.client_rate = client_rate if shared else 0.0
        self.exposure_s = (config.durations.setup_ms
                           + config.durations.steady_ms) / 1000
        self.cost = frame_cost(config)
        self.day_limit = config.resource.high_fraction * config.energy.budget

    def expected_drain(self):
        """Admitted rate x exposure x frame cost, plus each sub-run's
        initial burst."""
        return (self.rate * self.exposure_s
                + SUBRUNS * self.burst) * self.cost

    def frames(self):
        """(least, most) attack frames that reach the server in a cell."""
        t = self.exposure_s / SUBRUNS
        most = max(0, self.burst + math.ceil(self.rate * t) - 1)
        short = self.gates - 1
        if self.client_rate:
            short += self.burst + math.ceil(
                self.rate * t * self.client_rate
                / (self.client_rate + self.offered))
        return SUBRUNS * (most - short), SUBRUNS * most

    def per_day(self, drain):
        return drain * 86_400 / self.exposure_s

    def label(self):
        """The resource label the model predicts, or None if its range of
        drains straddles the `high` threshold."""
        least, most = (self.per_day(n * self.cost) for n in self.frames())
        if most == 0:
            return "low_or_none"
        if least > self.day_limit:
            return "high"
        if most <= self.day_limit:
            return "low"
        return None


def check_cell(doc, scenario, attack):
    config = config_from_dict(doc)
    model = Model(config, scenario, attack)
    # Every token is spent as it accrues only if frames come much faster.
    assert model.offered >= 10 * model.rate
    cell = run_cell(config, scenario, attack)
    drain = cell["energy"]["attack_attributable"]
    least, most = model.frames()
    assert least * model.cost - 1e-6 <= drain <= most * model.cost + 1e-6
    assert drain <= model.expected_drain() + 1e-6
    return model, cell


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("scenario, attack, binding", [
    ("exemptions", "blind_flood", "non_proxy per source"),
    ("exemptions", "distributed_flood", "non_proxy aggregate"),
    ("baseline-throttled", "blind_flood", "router"),
    ("baseline-throttled", "distributed_flood", "router"),
])
def test_flood_drain_follows_the_binding_bucket(scenario, attack, binding,
                                               seed):
    model, cell = check_cell({"seed": seed}, scenario, attack)
    assert model.binding == binding
    assert model.label() == cell["resource"] == "low"


def test_binding_rates_and_expected_drains_at_the_defaults():
    config = SimConfig()
    rates = {(s, a): Model(config, s, a).rate
             for s in ("exemptions", "baseline-throttled") for a in FLOODS}
    assert rates == {
        ("exemptions", "blind_flood"): config.guard.non_proxy_bucket
        .per_source_rate,
        ("exemptions", "distributed_flood"): config.guard.non_proxy_bucket
        .aggregate_rate,
        ("baseline-throttled", "blind_flood"):
            config.baseline_throttle.rate_per_s,
        ("baseline-throttled", "distributed_flood"):
            config.baseline_throttle.rate_per_s}
    model = Model(config, "exemptions", "distributed_flood")
    # 0.1/s over 600 s plus a burst of 2 in each sub-run, at 0.50296 each.
    assert model.expected_drain() == pytest.approx(64 * 0.50296)


@pytest.mark.parametrize("attack", FLOODS)
def test_fullguard_predicts_and_shows_zero_drain(attack):
    model, cell = check_cell({}, "fullguard", attack)
    assert model.expected_drain() == 0.0 and model.frames() == (0, 0)
    assert cell["energy"]["attack_attributable"] == 0.0
    assert model.label() == cell["resource"] == "low_or_none"


@pytest.mark.parametrize("aggregate_rate, label", [(0.11, "low"),
                                                   (0.12, "high")])
def test_resource_label_flips_where_the_model_predicts(aggregate_rate, label):
    doc = {"guard": {"non_proxy_bucket": {"aggregate_rate": aggregate_rate}}}
    model, cell = check_cell(doc, "exemptions", "distributed_flood")
    assert model.binding == "non_proxy aggregate"
    assert model.label() == cell["resource"] == label
