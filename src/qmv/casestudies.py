"""Generators for the three bundled case studies.

Each generator emits a guarded-command model (``.gcm``) plus a property
file (``.props``) as text:

* ``gen_bitcoin`` — a Markov automaton of a mining pool that secretly
  forks the Bitcoin blockchain to undermine trust in confirmed
  transactions, with a restart/continue strategy choice to optimise.
* ``gen_contact_mdp`` — an MDP of copy routing over a time-slotted,
  unreliable satellite contact plan (read from JSON via
  ``parse_contact_plan``), built so that every decision belongs to a
  single node process ("good for distribution").
* ``gen_noc`` — a DTMC of a 2x2 network-on-chip mesh with buffers
  abstracted to bounded counters, counting power-supply-noise events
  (too many simultaneous transmitters, or too fast a change in their
  number) per clock cycle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from qmv.lang.lexer import IDENTIFIER_RE, KEYWORDS


@dataclass(frozen=True)
class GeneratedCase:
    """A generated model/properties pair, writable as name.gcm/name.props."""

    name: str
    model: str
    props: str

    def write(self, directory: str | Path) -> tuple[Path, Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        gcm = directory / f"{self.name}.gcm"
        props = directory / f"{self.name}.props"
        gcm.write_text(self.model)
        props.write_text(self.props)
        return gcm, props


def _decimal(x) -> str:
    """Render a probability/fraction so the model parser recovers it
    exactly (parsers read decimal literals as exact fractions)."""
    if isinstance(x, Fraction):
        return f"({x.numerator}/{x.denominator})" if x.denominator != 1 \
            else str(x.numerator)
    return repr(float(x))


# --------------------------------------------------------------------------
# Bitcoin trust attack


@dataclass(frozen=True)
class BitcoinParams:
    """Parameters of the blockchain trust-attack model.

    ``M`` is the attacker's fraction of the global hash rate, ``CD`` the
    confirmation depth after which the victim trusts a payment, ``DB`` how
    far the secret fork may fall behind before the attacker must restart
    (defaults to ``CD``), and ``goal`` the success predicate over the fork
    length ``m_len`` and the length difference ``m_diff``.
    """

    M: float = 0.2
    CD: int = 6
    DB: int | None = None
    goal: str = "m_len >= CD & m_diff > 0"

    def __post_init__(self):
        if not 0 < self.M < 1:
            raise ValueError(f"M must lie strictly in (0, 1), got {self.M}")
        if self.CD < 1:
            raise ValueError(f"CD must be at least 1, got {self.CD}")
        if self.DB is not None and self.DB < 1:
            raise ValueError(f"DB must be at least 1, got {self.DB}")


def gen_bitcoin(p: BitcoinParams) -> GeneratedCase:
    """Markov automaton of the trust attack.

    The honest pool mines blocks at rate (1/12)*(1-M) per minute and
    announces each via the synchronizing action ``sln``.  The attacker
    mines its secret fork at rate (1/12)*M; whenever the public chain is
    extended it must immediately decide between restarting the fork
    (``rst``, always possible) and continuing (``cnt``, possible while it
    is not more than DB blocks behind).  ``m_len`` is the secret fork's
    length (saturated at CD: longer forks are no better), ``m_diff`` the
    secret-minus-public length difference.

    At M=0.2 the min-expected-time strategy is the three-condition rule
    (restart when ``m_len=0``, when ``m_len=1 & m_diff<=-2``, or when
    ``m_len>=2 & m_diff<=-3``) from CD=5 on.  At CD=3 and 4 the optimum
    also restarts at ``m_diff=-2`` for ``m_len>=2``.
    """
    db = f"const int DB = {p.DB};" if p.DB is not None \
        else "const int DB = CD;"
    model = f"""\
ma

// Trust attack on a proof-of-work blockchain: a malicious pool secretly
// forks the chain and publishes the fork once it is long and ahead.

const real M = {_decimal(p.M)};  // attacker's fraction of the hash rate
const int CD = {p.CD};  // blocks until the victim trusts a payment
{db}  // give up when this far behind

action sln, rst, cnt;

module honest_pool
  h : [0..1] init 0;
  // one block every 12/(1-M) minutes on average, then announce it
  rate((1/12) * (1 - M)) h=0 -> (h'=1);
  [sln] h=1 -> (h'=0);
endmodule

module attacker
  a : [0..1] init 0;
  m_len : [0..CD+1] init 0;   // length of the secret fork
  m_diff : [-DB..CD+1] init 0;  // secret fork length minus public fork length
  // mine a secret block (pointless beyond CD blocks ahead)
  rate((1/12) * M) a=0 & m_diff <= CD -> (m_len'=min(CD, m_len+1), m_diff'=m_diff+1);
  // the public fork was extended: decide to restart or continue
  [sln] a=0 -> (a'=1, m_diff'=m_diff-1);
  [rst] a=1 -> (a'=0, m_len'=0, m_diff'=0);
  [cnt] a=1 & m_diff > -DB -> (a'=0);
endmodule

label "goal" = {p.goal};
"""
    props = """\
// minimal expected time (minutes) until the attack succeeds
Tmin=? [ F "goal" ]
// chance of success within 2.5 days under the best strategy
Pmax=? [ F<=3600 "goal" ]
"""
    return GeneratedCase("bitcoin", model, props)


# --------------------------------------------------------------------------
# satellite contact plans


@dataclass(frozen=True)
class Contact:
    """One transmission opportunity: from -> to in a slot, success prob p."""

    from_node: str
    to_node: str
    slot: int
    p: float


@dataclass(frozen=True)
class ContactPlan:
    """A time-slotted list of unreliable communication opportunities."""

    nodes: tuple[str, ...]
    slots: int
    contacts: tuple[Contact, ...]
    source: str
    target: str
    copies: int = 1

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a contact plan needs at least one node")
        for name in self.nodes:
            if not IDENTIFIER_RE.fullmatch(name) or name in KEYWORDS:
                raise ValueError(f"node name {name!r} is not a valid "
                                 "identifier")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        if self.slots < 0:
            raise ValueError("slot count must be nonnegative")
        known = set(self.nodes)
        seen = set()
        for c in self.contacts:
            if c.from_node not in known or c.to_node not in known:
                raise ValueError(
                    f"contact {c.from_node}->{c.to_node} uses an "
                    "undeclared node")
            if c.from_node == c.to_node:
                raise ValueError(f"contact from {c.from_node} to itself")
            if not 1 <= c.slot <= self.slots:
                raise ValueError(
                    f"contact {c.from_node}->{c.to_node} slot {c.slot} "
                    f"outside [1..{self.slots}]")
            if not 0 < c.p <= 1:
                raise ValueError(
                    f"contact {c.from_node}->{c.to_node} success "
                    f"probability {c.p} outside (0, 1]")
            key = (c.from_node, c.to_node, c.slot)
            if key in seen:
                raise ValueError(
                    f"duplicate contact {c.from_node}->{c.to_node} in "
                    f"slot {c.slot}")
            seen.add(key)
        if self.source not in known:
            raise ValueError(f"unknown source node {self.source!r}")
        if self.target not in known:
            raise ValueError(f"unknown target node {self.target!r}")
        if self.copies < 1:
            raise ValueError("the source needs at least one copy")

    def ordered_contacts(self) -> tuple[Contact, ...]:
        """Contacts serialized by (slot, declaration order)."""
        return tuple(sorted(self.contacts, key=lambda c: c.slot))


def parse_contact_plan(data: bytes | str) -> ContactPlan:
    """Parse the JSON contact-plan format.

    Schema: ``{"nodes": [...], "slots": int, "contacts": [{"from": str,
    "to": str, "slot": int, "p": real}], "source": str, "target": str,
    "copies": int}``.
    """
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed contact plan JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("contact plan must be a JSON object")
    try:
        nodes = tuple(str(n) for n in doc["nodes"])
        slots = int(doc["slots"])
        contacts = tuple(
            Contact(str(c["from"]), str(c["to"]), int(c["slot"]),
                    float(c["p"]))
            for c in doc["contacts"])
        source = str(doc["source"])
        target = str(doc["target"])
        copies = int(doc.get("copies", 1))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed contact plan: {e}") from None
    return ContactPlan(nodes, slots, contacts, source, target, copies)


def sample_contact_plan() -> str:
    """The four-satellite example plan: two disjoint relay routes plus a
    last-chance direct contact, all unreliable."""
    plan = {
        "nodes": ["N1", "N2", "N3", "N4"],
        "slots": 5,
        "contacts": [
            {"from": "N1", "to": "N2", "slot": 1, "p": 0.9},
            {"from": "N2", "to": "N3", "slot": 2, "p": 0.9},
            {"from": "N1", "to": "N3", "slot": 3, "p": 0.5},
            {"from": "N3", "to": "N4", "slot": 4, "p": 0.5},
            {"from": "N1", "to": "N4", "slot": 5, "p": 0.1},
        ],
        "source": "N1",
        "target": "N4",
        "copies": 2,
    }
    return json.dumps(plan, indent=2) + "\n"


def gen_contact_mdp(plan: ContactPlan) -> GeneratedCase:
    """MDP of copy routing over the contact plan.

    Contacts are serialized into epochs (slot order, then declaration
    order); a global ``step`` counter advances through them.  At the epoch
    of contact u->v with success probability p, node u chooses how many of
    its copies to transmit; the whole batch either arrives (probability p)
    or is destroyed.  Copy counters are globals so a single command can
    move copies, but every command of an epoch lives in the sending node's
    process, which observes only its own counter and the step — so each
    decision has a unique owner, and distributed schedulers are
    meaningful.  Delivery means the target holds at least one copy.
    """
    ordered = plan.ordered_contacts()
    n = plan.copies
    lines = [
        "mdp",
        "",
        "// Copy routing over a time-slotted contact plan.  step counts",
        "// through the contacts; at each one the sender picks a batch",
        "// size, which arrives completely or is lost completely.",
        "",
        f"global step : [0..{len(ordered)}] init 0;",
    ]
    for node in plan.nodes:
        init = n if node == plan.source else 0
        lines.append(f"global c_{node} : [0..{n}] init {init};  "
                     f"// copies held by {node}")
    lines.append("")
    for ni, node in enumerate(plan.nodes):
        lines.append(f"module {node}")
        lines.append(f"  observes c_{node}, step;")
        for e, c in enumerate(ordered):
            if c.from_node != node:
                continue
            lines.append(f"  // epoch {e} = slot {c.slot}: {c.from_node} -> "
                         f"{c.to_node} with success probability {c.p}")
            lines.append(f"  [] step={e} -> (step'={e+1});")
            for k in range(1, n + 1):
                upd_ok = (f"step'={e+1}, c_{c.from_node}'=c_{c.from_node}-{k}, "
                          f"c_{c.to_node}'=c_{c.to_node}+{k}")
                upd_lost = f"step'={e+1}, c_{c.from_node}'=c_{c.from_node}-{k}"
                guard = f"step={e} & c_{c.from_node}>={k}"
                if c.p == 1:
                    lines.append(f"  [] {guard} -> ({upd_ok});")
                else:
                    w = _decimal(c.p)
                    lines.append(f"  [] {guard} -> {w}:({upd_ok}) + "
                                 f"(1 - {w}):({upd_lost});")
        lines.append("endmodule")
        lines.append("")
    lines.append(f'label "delivered" = c_{plan.target} >= 1;')
    model = "\n".join(lines) + "\n"
    props = """\
// best-case chance that the target ever holds a copy
Pmax=? [ F "delivered" ]
"""
    return GeneratedCase("contacts", model, props)


# --------------------------------------------------------------------------
# network-on-chip noise


@dataclass(frozen=True)
class NocParams:
    """Parameters of the 2x2 mesh noise model.

    ``pattern`` selects flit injection: ``every-other`` injects into each
    router's local buffer every second cycle; ``bursty`` injects on the
    first ``burst_len`` cycles of every ``burst_period`` cycles.
    ``buffer`` bounds each queue counter.  A cycle is a noise event when
    at least ``k_res`` routers transmit simultaneously (resistive) or the
    transmitter count changes by at least ``k_ind`` between consecutive
    cycles (inductive); ``events`` is the count to reach (the counter
    saturates there) and ``horizon`` the number of cycles in the bundled
    property.
    """

    pattern: str = "every-other"
    burst_len: int | None = None
    burst_period: int | None = None
    buffer: int = 1
    k_res: int = 3
    k_ind: int = 2
    events: int = 1
    horizon: int = 10

    def __post_init__(self):
        if self.pattern not in ("every-other", "bursty"):
            raise ValueError(f"unknown injection pattern {self.pattern!r}")
        if self.pattern == "bursty":
            if self.burst_len is None or self.burst_period is None:
                raise ValueError("bursty pattern needs burst_len and "
                                 "burst_period")
            if self.burst_len < 1:
                raise ValueError("burst_len must be positive")
            if self.burst_period < self.burst_len:
                raise ValueError("burst_period must be at least burst_len")
        elif self.burst_len is not None or self.burst_period is not None:
            raise ValueError("burst_len/burst_period only apply to the "
                             "bursty pattern")
        if self.buffer < 1:
            raise ValueError("buffer capacity must be positive")
        if not 1 <= self.k_res <= 4:
            raise ValueError("k_res must lie in [1..4] (4 routers)")
        if self.k_ind < 1:
            raise ValueError("k_ind must be positive")
        if self.events < 0:
            raise ValueError("event count must be nonnegative")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")

    @property
    def period(self) -> int:
        return 2 if self.pattern == "every-other" else self.burst_period


#: Mesh layout: routers 0,1 on the top row, 2,3 on the bottom row.
#: XY routing sends flits horizontally first, so the two-hop (diagonal)
#: routes pass through the horizontal neighbour's transit queue.
_HORIZONTAL = {0: 1, 1: 0, 2: 3, 3: 2}
_VERTICAL = {0: 2, 1: 3, 2: 0, 3: 1}


def gen_noc(p: NocParams) -> GeneratedCase:
    """DTMC of the 2x2 mesh with counter-abstracted buffers.

    One clock cycle is five micro-steps, driven by ``tick``: bookkeeping,
    then one transmission step per router.  Bookkeeping registers the
    previous cycle's noise event from the transmitter count ``cnt``,
    merges staged transit arrivals (``g`` -> ``t``), and injects new local
    flits per the pattern.  A router serves its local queue ``f`` or its
    transit queue ``t`` by round-robin; serving ``f`` samples the flit's
    destination uniformly over the three other routers at that moment
    (one-hop flits are consumed on arrival, diagonal flits are staged at
    the horizontal neighbour and forwarded vertically a cycle later).
    Local transmission is held back while the neighbour's transit queue
    is full, so no flit is ever dropped.
    """
    B, n = p.buffer, p.events
    period = p.period
    inject_when = "phase = 0" if p.pattern == "every-other" \
        else f"phase < {p.burst_len}"
    noise = (f"(cnt >= {p.k_res}) | "
             f"(((cnt >= prev) ? (cnt - prev) : (prev - cnt)) >= {p.k_ind})")

    book = [
        "tick'=1",
        f"events'=min({n}, events + (({noise}) ? 1 : 0))",
        "prev'=cnt",
        "cnt'=0",
        f"phase'=((phase = {period - 1}) ? 0 : (phase + 1))",
    ]
    for i in range(4):
        book.append(f"t{i}'=min({B}, t{i} + g{i})")
        book.append(f"g{i}'=0")
        book.append(f"f{i}'=(({inject_when}) ? min({B}, f{i} + 1) : f{i})")

    lines = [
        "dtmc",
        "",
        "// 2x2 mesh network-on-chip, buffers abstracted to counters.",
        "// Five micro-steps per clock cycle: bookkeeping, then one",
        "// transmission opportunity per router.",
        "",
        "global tick : [0..4] init 0;    // micro-step within the cycle",
        f"global phase : [0..{period - 1}] init 0;  // cycle within the injection period",
        "global cnt : [0..4] init 0;     // transmitters so far this cycle",
        "global prev : [0..4] init 0;    // transmitter count of the last cycle",
        f"global events : [0..{max(n, 0)}] init 0;  // noise events, saturating",
    ]
    for i in range(4):
        lines.append(f"global f{i} : [0..{B}] init 0;  // router {i}: own flits")
        lines.append(f"global t{i} : [0..{B}] init 0;  // router {i}: flits in transit")
        lines.append(f"global g{i} : [0..1] init 0;  // router {i}: transit arrival staging")
    lines += [
        "",
        "module clock",
        "  // register last cycle's noise event, merge staged arrivals,",
        "  // inject per the pattern, advance the injection phase",
        "  [] tick=0 -> (" + ", ".join(book) + ");",
        "endmodule",
        "",
    ]
    for i in range(4):
        h, nt = _HORIZONTAL[i], (i + 2) % 5
        can_f = f"f{i} > 0 & t{h} < {B}"
        no_f = f"(f{i} = 0 | t{h} >= {B})"
        serve_f = f"tick={i + 1} & {can_f} & (rr{i} = 0 | t{i} = 0)"
        serve_t = f"tick={i + 1} & t{i} > 0 & (rr{i} = 1 | {no_f})"
        idle = f"tick={i + 1} & {no_f} & t{i} = 0"
        common = f"cnt'=cnt+1, rr{i}'=1, tick'={nt}"
        lines += [
            f"module router{i}",
            f"  rr{i} : [0..1] init 0;  // round robin: serve f (0) or t (1) first",
            "  // serve the local queue: destination sampled now, uniform",
            "  // over the other three routers",
            f"  [] {serve_f} -> (1/3):(f{i}'=f{i}-1, g{h}'=1, {common})",
            f"            + (1/3):(f{i}'=f{i}-1, {common})",
            f"            + (1/3):(f{i}'=f{i}-1, {common});",
            "  // forward a transit flit vertically to its destination",
            f"  [] {serve_t} -> (t{i}'=t{i}-1, cnt'=cnt+1, rr{i}'=0, tick'={nt});",
            f"  [] {idle} -> (tick'={nt});",
            "endmodule",
            "",
        ]
    lines.append(f'label "noisy" = events >= {n};')
    lines.append('label "drained" = f0+f1+f2+f3+t0+t1+t2+t3+g0+g1+g2+g3 = 0;')
    model = "\n".join(lines) + "\n"
    # a cycle's transmissions are registered at the next bookkeeping
    # micro-step, hence the +1 on the 5-micro-steps-per-cycle bound
    props = f"""\
// chance of at least {n} noise event(s) within {p.horizon} clock cycles
// ({p.horizon} cycles = 5*{p.horizon}+1 micro-steps)
Pmax=? [ F<={5 * p.horizon + 1} "noisy" ]
"""
    return GeneratedCase("noc", model, props)
