"""Generated case studies: mining race MA, contact-plan MDP, on-chip DTMC."""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qmv.casestudies import (
    BitcoinParams,
    Contact,
    ContactPlan,
    NocParams,
    gen_bitcoin,
    gen_contact_mdp,
    gen_noc,
    parse_contact_plan,
    sample_contact_plan,
)
from qmv.core import Direction, ModelClass, check_good_for_distribution
from qmv.lang import parse_model, parse_properties
from qmv.lang.explore import explore
from qmv.numeric import SolverConfig, ma_expected_time, reach_prob

CFG = SolverConfig()
DATA = Path(__file__).resolve().parent.parent / "data"


def explored(case):
    return explore(parse_model(case.model))


class TestBitcoin:
    def test_parameter_validation(self):
        for bad in [dict(M=0.0), dict(M=1.0), dict(M=-0.1),
                    dict(CD=0), dict(DB=0)]:
            with pytest.raises(ValueError):
                BitcoinParams(**bad)

    def test_smallest_instance_layout(self):
        sp = explored(gen_bitcoin(BitcoinParams(CD=1, DB=1)))
        assert sp.model_class is ModelClass.MA
        assert sp.n_states == 12
        m_len = sp.valuations[:, sp.variable_index("m_len")]
        m_diff = sp.valuations[:, sp.variable_index("m_diff")]
        assert (m_len.min(), m_len.max()) == (0, 1)
        assert (m_diff.min(), m_diff.max()) == (-1, 2)

    def test_secret_fork_respects_declared_bounds(self):
        params = BitcoinParams(CD=3, DB=2)
        sp = explored(gen_bitcoin(params))
        m_len = sp.valuations[:, sp.variable_index("m_len")]
        m_diff = sp.valuations[:, sp.variable_index("m_diff")]
        assert m_len.max() == params.CD
        assert m_diff.min() >= -params.DB
        assert m_diff.max() <= params.CD + 1

    def test_give_up_depth_defaults_to_fork_length(self):
        case = gen_bitcoin(BitcoinParams(CD=4))
        assert "const int DB = CD;" in case.model

    def test_properties_parse_against_the_model(self):
        case = gen_bitcoin(BitcoinParams(CD=2))
        sp = explored(case)
        props = parse_properties(case.props, model_class=ModelClass.MA,
                                 labels=sp.labels)
        assert [p.text for p in props] == [
            'Tmin=? [ F "goal" ]', 'Pmax=? [ F<=3600 "goal" ]']

    def test_first_win_race_has_closed_form_expected_time(self):
        # one block ahead: a geometric number of 12-minute races, each won
        # with probability M, so minimal expected time is 12/M
        for M in (0.1, 0.5):
            params = BitcoinParams(M=M, CD=1,
                                   goal="m_len >= 1 & m_diff >= 1")
            sp = explored(gen_bitcoin(params))
            res = ma_expected_time(sp, sp.labels["goal"], Direction.MIN, CFG)
            assert res.value == pytest.approx(12 / M, rel=1e-4)

    def test_write_emits_model_and_props(self, tmp_path):
        case = gen_bitcoin(BitcoinParams(CD=1))
        gcm, props = case.write(tmp_path)
        assert gcm.read_text() == case.model
        assert props.read_text() == case.props
        assert gcm.suffix == ".gcm" and props.suffix == ".props"


class TestContactPlan:
    def test_sample_plan_round_trips(self):
        plan = parse_contact_plan(sample_contact_plan())
        assert plan.nodes == ("N1", "N2", "N3", "N4")
        assert (plan.source, plan.target) == ("N1", "N4")
        assert plan.slots == 5 and plan.copies == 2
        assert len(plan.contacts) == 5

    def test_shipped_sample_file_matches_generator(self):
        on_disk = (DATA / "sample_contact_plan.json").read_text()
        assert json.loads(on_disk) == json.loads(sample_contact_plan())

    def test_parse_accepts_bytes(self):
        plan = parse_contact_plan(sample_contact_plan().encode())
        assert plan.slots == 5

    def test_parse_rejects_bad_json(self):
        with pytest.raises(ValueError):
            parse_contact_plan("{not json")
        with pytest.raises(ValueError):
            parse_contact_plan(json.dumps({"nodes": ["A"]}))
        with pytest.raises(ValueError, match="must be a JSON object"):
            parse_contact_plan("[]")

    BASE = dict(nodes=("A", "B"), slots=3,
                contacts=(Contact("A", "B", 1, 0.5),),
                source="A", target="B", copies=1)

    @pytest.mark.parametrize("patch", [
        dict(nodes=("A", "module")),     # reserved word
        dict(nodes=("A", "2B")),         # not an identifier
        dict(nodes=("A", "B", "A")),     # duplicate
        dict(slots=0),
        dict(source="Z"),
        dict(target="Z"),
        dict(copies=0),
        dict(contacts=(Contact("A", "B", 9, 0.5),)),   # slot out of range
        dict(contacts=(Contact("A", "Z", 1, 0.5),)),   # unknown node
        dict(contacts=(Contact("A", "B", 1, 0.0),)),   # p out of (0, 1]
        dict(contacts=(Contact("A", "B", 1, 1.5),)),
        dict(contacts=(Contact("A", "B", 1, 0.5),
                       Contact("A", "B", 1, 0.7))),    # duplicate contact
        dict(nodes=()),
        dict(slots=-1, contacts=()),
        dict(contacts=(Contact("A", "A", 1, 0.5),)),   # self-contact
    ])
    def test_plan_validation(self, patch):
        with pytest.raises(ValueError):
            ContactPlan(**{**self.BASE, **patch})

    def test_ordered_contacts_sorts_by_slot_stably(self):
        plan = ContactPlan(
            nodes=("A", "B", "C"), slots=4,
            contacts=(Contact("B", "C", 3, 0.5), Contact("A", "B", 1, 0.5),
                      Contact("A", "C", 3, 0.5)),
            source="A", target="C", copies=1)
        assert [(c.slot, c.from_node, c.to_node)
                for c in plan.ordered_contacts()] == [
            (1, "A", "B"), (3, "B", "C"), (3, "A", "C")]

    def test_generated_mdp_structure(self):
        plan = parse_contact_plan(sample_contact_plan())
        sp = explored(gen_contact_mdp(plan))
        assert sp.model_class is ModelClass.MDP
        assert sp.components == plan.nodes
        # epoch counter runs over the distinct contact slots
        hi = sp.layout[sp.variable_index("step")].hi
        assert hi == len({c.slot for c in plan.contacts})
        assert "delivered" in sp.labels

    def test_every_decision_has_a_single_owner(self):
        plan = parse_contact_plan(sample_contact_plan())
        sp = explored(gen_contact_mdp(plan))
        assert check_good_for_distribution(sp) == []

    def test_copies_are_never_created(self):
        plan = parse_contact_plan(sample_contact_plan())
        sp = explored(gen_contact_mdp(plan))
        c_cols = [i for i, v in enumerate(sp.layout)
                  if v.name.startswith("c_")]
        totals = sp.valuations[:, c_cols].sum(axis=1)
        assert totals.max() <= plan.copies
        assert totals[sp.initial] == plan.copies

    def test_certain_contact_has_no_loss_branch(self):
        plan = ContactPlan(**{**self.BASE,
                              "contacts": (Contact("A", "B", 1, 1.0),)})
        sp = explored(gen_contact_mdp(plan))
        assert np.diff(sp.branch_ptr).max() == 1
        res = reach_prob(sp, sp.labels["delivered"], Direction.MAX, CFG)
        assert res.value == 1.0

    def test_delivered_label_means_target_holds_a_copy(self):
        plan = parse_contact_plan(sample_contact_plan())
        sp = explored(gen_contact_mdp(plan))
        col = sp.valuations[:, sp.variable_index(f"c_{plan.target}")]
        assert np.array_equal(sp.labels["delivered"], col >= 1)


@pytest.mark.parametrize("case", [
    gen_bitcoin(BitcoinParams()),
    gen_noc(NocParams()),
    gen_noc(NocParams(pattern="bursty", burst_len=2, burst_period=4)),
    gen_contact_mdp(parse_contact_plan(sample_contact_plan())),
], ids=lambda case: case.name)
def test_pretty_printed_model_reparses_to_the_same_model(case):
    model = parse_model(case.model)
    assert parse_model(model.pretty()) == model


class TestNoc:
    def test_parameter_validation(self):
        for bad in [dict(pattern="nope"), dict(buffer=0), dict(burst_len=3),
                    dict(pattern="bursty"), dict(horizon=0), dict(k_res=0),
                    dict(k_res=5), dict(events=-1), dict(k_ind=0),
                    dict(pattern="bursty", burst_len=0, burst_period=2),
                    dict(pattern="bursty", burst_len=3, burst_period=2)]:
            with pytest.raises(ValueError):
                NocParams(**bad)

    def test_injection_period(self):
        assert NocParams().period == 2
        assert NocParams(pattern="bursty", burst_len=2,
                         burst_period=4).period == 4

    def test_default_instance_is_a_deterministic_dtmc(self):
        sp = explored(gen_noc(NocParams()))
        assert sp.model_class is ModelClass.DTMC
        assert sp.n_states == 352
        assert all(len(cs) == 1 for cs in sp.choices)
        assert {"noisy", "drained"} <= set(sp.labels)

    def test_step_bound_counts_micro_steps(self):
        case = gen_noc(NocParams(horizon=4))
        sp = explored(case)
        props = parse_properties(case.props, model_class=ModelClass.DTMC,
                                 labels=sp.labels)
        assert props[0].bound == 5 * 4 + 1

    def test_zero_event_threshold_is_immediately_noisy(self):
        sp = explored(gen_noc(NocParams(events=0)))
        assert sp.labels["noisy"].all()

    def test_bursty_pattern_explores(self):
        sp = explored(gen_noc(NocParams(pattern="bursty", burst_len=2,
                                        burst_period=4)))
        assert sp.n_states > 0
        phase = sp.valuations[:, sp.variable_index("phase")]
        assert phase.max() == 3
