"""Occupancy-based mixed-integer model of one itinerary.

The traveler's position over discrete time slots is a one-hot matrix
u[idx][t] (locations, stations and in-transit pseudo-locations); transitions
are binary events linked to transport-choice variables y[(i, j, mode, t)].
Visit counters for hotels, attractions and restaurants are derived by one
stay rule (`stay_rows`): z[n][t] = u[first+n][t] AND event[t], where the
table's rows sit at positions `first` on. For attractions and restaurants,
openness from the slice's load-time minutes is baked in by the same rule as
`att_check_*` and `res_check_*` rows that pin u to zero in closed slots.
Every implication is linearized with big-M = 1 where all variables are
binary; the count constraints use integer bounds instead.

Every dimension is read from the builder's one input, a `MilpSlice`
(`MilpSlice.params`). The positions of u are laid out as hotels, attractions,
restaurants, stations, then the in-transit modes, and each offset is read from
those params where it is used: `hotel_num`, `hotel_num + attr_num`, and
`total_num + k` for mode k. The variable names are spelled here only, in the
families that `declare_variables` builds; the decoder reads them from there.
Rows carry a category label and a deterministic name,
and the number of rows per category is a closed form of those dimensions
(see sizes.count_sizes) - the model and the formula are tested against each other.

A model has hundreds of thousands of rows over a few tens of thousands of
variables, so each variable name is spelled once per model, in a family: a
table of names indexed like the variable. A per-slot name is its family's
prefix joined to the slot's number, which is spelled once per model. The
variables of a family share one `VarInfo`, entered for all its names in one
step, and the name itself is the key in the builder's table.

The builder declares every variable, then passes each family of rows in LP
order to its one sink, the LP writer of lp_writer.write_lp, which writes the
text and holds no row. A family (`_Rows`) is a stream of LP text with its
category, the rows each text holds and the variable families its rows read,
whose names the builder checks against the declared variables once per build
rather than term by term. Most families spell each row from (coef, name)
terms with `_row_text`. The hot ones spell theirs with one f-string apiece:
the urban and transit rows, nearly every row of a model, the occupancy steps,
and the intercity exclusions, which read one in-town sum per slot.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import chain, count, filterfalse, repeat, starmap
from typing import Iterable, NamedTuple

from ..errors import BuildError
from ..evaluation.env_rules import MEAL_WINDOWS
from ..plan.model import MEAL_TYPES
from .params import DAY_MINUTES, MilpSlice

MIN_ATTRACTIONS_PER_DAY = 1


class VarInfo(NamedTuple):
    """What the LP file says of a variable besides its name, which is its key in
    the model's table: one object serves every variable of a family."""

    kind: str               # "binary" | "integer"
    lo: int = 0
    hi: int = 1
    category: str = ""


def open_slots(hours: tuple[int, int], slot_minutes: int) -> list[int]:
    """Per slot of a day, 1 if the (opening, closing) minutes cover it whole, else 0."""
    opens, closes = hours
    return [int(opens <= start and start + slot_minutes <= closes)
            for start in range(0, DAY_MINUTES, slot_minutes)]


def _flat(names: list) -> list:
    """The names of a family in index order; a family nests to one depth throughout."""
    while names and isinstance(names[0], list):
        names = list(chain.from_iterable(names))
    return names


def _per_slot(prefix: str, slots: list) -> list:
    """The names `prefix` + slot, for each slot's spelled number."""
    return [prefix + slot for slot in slots]


def _ahead(names: list, n: int) -> list:
    """names[t + n] for each slot t, the last slot standing for any slot past it."""
    return names[n:] + names[-1:] * n


class _Rows(NamedTuple):
    """One family of rows: `texts` spell them as LP lines, `size` rows to a
    text, and every name they read is in one of the variable families `reads`."""

    category: str
    size: int
    texts: Iterable[str]
    reads: tuple


def _number(value) -> str:
    return format(value, "f") if isinstance(value, Decimal) else str(value)


def _row_text(name: str, terms, sense: str = "", rhs=0) -> str:
    """The LP line of row `name`, or of the objective when it has no `sense`.

    Each (coef, var) term is written in order with its sign, a Decimal in
    fixed point; a zero one is dropped, and a row with none left reads "0"
    times its first name."""
    text = "".join(f" - {_number(-coef)} {var}" if coef < 0 else f" + {_number(coef)} {var}"
                   for coef, var in terms if coef)
    if not text:
        text = "0 " + (terms[0][1] if terms else "zero")
    elif text[1] == "+":
        text = text[3:]
    else:
        text = "-" + text[3:]
    tail = f" {sense} {_number(rhs)}" if sense else ""
    return f" {name}: {text}{tail}\n"


def _conjunction(z: str, a: str, b: str, prefix: str) -> tuple:
    """z = a AND b via three rows (big-M = 1, all binary)."""
    z, a, b = (1, z), (-1, a), (-1, b)
    return (_row_text(f"{prefix}_le1", (z, a), "<=", 0),
            _row_text(f"{prefix}_le2", (z, b), "<=", 0),
            _row_text(f"{prefix}_ge", (z, a, b), ">=", -1))


# Per position i and slot t, with names (delta[i][t], u[i][t], u[i][t+1],
# event[t]): a change of u at i sets delta (occ_dup, occ_ddn), and u changes
# only on an event (occ_evup, occ_evdn).
def _step_text(i, t, d, u, u1, e) -> str:
    return (f" occ_dup_{i}_{t}: 1 {d} + 1 {u} - 1 {u1} >= 0\n"
            f" occ_ddn_{i}_{t}: 1 {d} - 1 {u} + 1 {u1} >= 0\n"
            f" occ_evup_{i}_{t}: 1 {u1} - 1 {u} - 1 {e} <= 0\n"
            f" occ_evdn_{i}_{t}: 1 {u} - 1 {u1} - 1 {e} <= 0\n")


# Per y[(i, j, mode, t)] with names (y, u[i][t], event[t], u[mode][t+1],
# event[t+1], u[j][t+2]): y implies each condition (urb_l0..urb_l5, the mode
# twice) and their conjunction implies y (urb_ge). Each row is named by the
# suffix "_{i}_{j}_{k}_{t}" of its y variable.
def _link_text(y, a, b, c, d, e) -> str:
    tag = y[1:]
    return (f" urb_l0{tag}: 1 {y} - 1 {a} <= 0\n urb_l1{tag}: 1 {y} - 1 {b} <= 0\n"
            f" urb_l2{tag}: 1 {y} - 1 {c} <= 0\n urb_l3{tag}: 1 {y} - 1 {c} <= 0\n"
            f" urb_l4{tag}: 1 {y} - 1 {d} <= 0\n urb_l5{tag}: 1 {y} - 1 {e} <= 0\n"
            f" urb_ge{tag}: 1 {y} - 1 {a} - 1 {b} - 1 {c} - 1 {c} - 1 {d} - 1 {e} >= -5\n")


def _sum_text(names) -> str:
    return " + 1 ".join(names)


# Per location i and slot t: at most one ride leaves i at t, and only if the
# traveler is at i with an event at t (urb_outu, urb_oute); at most one ride
# reaches i from t, and only if they are at i at t+2 after an event at t+1
# (urb_inu, urb_ine).
def _flow_text(i, t, outs, ins, u, e, u2, e1) -> str:
    out, inn = _sum_text(outs), _sum_text(ins)
    return (f" urb_outu_{i}_{t}: 1 {out} - 1 {u} <= 0\n"
            f" urb_oute_{i}_{t}: 1 {out} - 1 {e} <= 0\n"
            f" urb_inu_{i}_{t}: 1 {inn} - 1 {u2} <= 0\n"
            f" urb_ine_{i}_{t}: 1 {inn} - 1 {e1} <= 0\n")


# Per location i, mode k and slot t: a ride out of i (trn_dep) or into i
# (trn_arr) by mode k at t has the traveler in mode k at t+1.
def _ride_text(i, k, t, deps, arrs, m) -> str:
    return (f" trn_dep_{i}_{k}_{t}: 1 {_sum_text(deps)} - 1 {m} <= 0\n"
            f" trn_arr_{i}_{k}_{t}: 1 {_sum_text(arrs)} - 1 {m} <= 0\n")


class _Builder:
    def __init__(self, slice_: MilpSlice, budget):
        for table, rows, hours in (("attraction", slice_.attractions, slice_.attraction_hours),
                                   ("restaurant", slice_.restaurants, slice_.restaurant_hours)):
            if len(hours) != len(rows):
                raise BuildError(f"slice carries {len(hours)} {table} hours for {len(rows)} rows")
        self.s = slice_
        self.p = slice_.params
        self.budget = budget
        self.vars: dict[str, VarInfo] = {}
        self.checked: dict[int, list] = {}     # the families check_declared passed, by id
        # index layout: hotels, attractions, restaurants, stations, transit modes
        self.n_positions = self.p.total_num + self.p.trans_num
        self.declare_variables()

    # -- declarations -----------------------------------------------------

    def binaries(self, names: list, category: str) -> list:
        self.vars.update(dict.fromkeys(_flat(names), VarInfo("binary", 0, 1, category)))
        return names

    def integers(self, names: list, hi: int, category: str) -> list:
        self.vars.update(dict.fromkeys(_flat(names), VarInfo("integer", 0, hi, category)))
        return names

    def check_declared(self, category: str, *families: list) -> None:
        """Refuse a name of `families` missing from `vars`, naming the rows of
        `category` that read it; each family is checked once, not per term."""
        fresh = [family for family in families if id(family) not in self.checked]
        self.checked.update((id(family), family) for family in fresh)
        names = chain.from_iterable(_flat(family) for family in fresh)
        missing = next(filterfalse(self.vars.__contains__, names), None)
        if missing is not None:
            raise BuildError(f"{category} rows reference undeclared {missing}")

    def day_slots(self, d: int) -> range:
        spd = self.p.slots_per_day
        return range(d * spd, (d + 1) * spd)

    def slot_of(self, minutes: int, day: int = 0) -> int:
        slot = day * self.p.slots_per_day + minutes // self.p.slot_minutes
        return max(0, min(self.p.time_step - 1, slot))

    # -- variables ----------------------------------------------------------

    def declare_variables(self) -> None:
        """Declare every family in LP order and keep its table of names."""
        p = self.p
        T = p.time_step
        P, L, K = self.n_positions, p.total_num, p.trans_num
        slots = [str(t) for t in range(T)]
        self.u = self.binaries([_per_slot(f"u_{i}_", slots) for i in range(P)], "u")
        self.delta = self.binaries(
            [_per_slot(f"delta_{i}_", slots[:-1]) for i in range(P)], "delta")
        self.event = self.binaries(_per_slot("event_", slots), "event")
        self.hotel = self.integers(
            [[f"hotel_{h}_{d}" for d in range(p.days)] for h in range(p.hotel_num)],
            p.slots_per_day, "hotel")
        self.zhotel = self.binaries(
            [_per_slot(f"zhotel_{h}_", slots) for h in range(p.hotel_num)], "zhotel")
        self.attr = self.integers([f"attr_{a}" for a in range(p.attr_num)], T, "attr")
        self.zattr = self.binaries(
            [_per_slot(f"zattr_{a}_", slots) for a in range(p.attr_num)], "zattr")
        self.rest = self.integers(
            [[f"rest_{r}_{m}" for m in range(3 * p.days)] for r in range(p.rest_num)],
            T, "rest")
        self.zrest = self.binaries(
            [_per_slot(f"zrest_{r}_", slots) for r in range(p.rest_num)], "zrest")
        self.y = self.binaries(
            [[[_per_slot(f"y_{i}_{j}_{k}_", slots) for k in range(K)]
              for j in range(L)] for i in range(L)], "y")
        self.needeat = self.binaries([f"needeat_{m}" for m in range(3 * p.days)], "needeat")
        self.intergo = self.binaries([f"intergo_{g}" for g in range(p.go_num)], "intergo")
        self.interback = self.binaries(
            [f"interback_{b}" for b in range(p.back_num)], "interback")

    # -- constraint groups ---------------------------------------------------

    def occupancy_rows(self):
        """One place at a time; changes only on events; events move exactly 2."""
        T = self.p.time_step
        u, delta, event = self.u, self.delta, self.event
        steps = (zip(repeat(i), count(), delta[i], u[i], u[i][1:], event)
                 for i in range(self.n_positions))
        yield _Rows("occupancy", 4, starmap(_step_text, chain.from_iterable(steps)),
                    (u, delta, event))
        changes = (_row_text(f"occ_change_{t}", [(1, names[t]) for names in delta]
                             + [(-2, event[t])], "=", 0) for t in range(T - 1))
        ones = (_row_text(f"occ_one_{t}", [(1, names[t]) for names in u], "=", 1)
                for t in range(T))
        yield _Rows("occupancy", 1, chain(changes, ones), (u, delta, event))

    def stay_rows(self, z: list, first: int, prefix: str, hours=None):
        """The stay rule of one POI table, whose rows sit at positions `first`
        on: z[n][t] = u[first+n][t] AND event[t]; with the table's `hours`,
        also the `{prefix}_check_*` row that pins u to 0 in a closed slot."""
        p = self.p
        event = self.event
        for n, stays in enumerate(z):
            u = self.u[first + n]
            opens = None if hours is None else open_slots(hours[n], p.slot_minutes)
            for t in range(p.time_step):
                yield from _conjunction(stays[t], u[t], event[t], f"{prefix}_z_{n}_{t}")
                if opens is not None:
                    yield _row_text(f"{prefix}_check_{n}_{t}", ((1, u[t]),), "<=",
                                    opens[t % p.slots_per_day])

    def hotel_rows(self):
        p = self.p
        hotel, zhotel = self.hotel, self.zhotel

        def rows():
            yield from self.stay_rows(zhotel, 0, "hot")
            for h, stays in enumerate(zhotel):
                for d in range(p.days):
                    terms = [(1, hotel[h][d])] + [(-1, stays[t]) for t in self.day_slots(d)]
                    yield _row_text(f"hot_def_{h}_{d}", terms, "=", 0)
            if hotel:
                for d in range(p.days):
                    yield _row_text(f"hot_one_{d}", [(1, days[d]) for days in hotel], "=", 1)

        yield _Rows("hotel", 1, rows(), (self.u, self.event, zhotel, hotel))

    def attraction_rows(self):
        p = self.p
        attr, zattr = self.attr, self.zattr

        def rows():
            yield from self.stay_rows(zattr, p.hotel_num, "att", self.s.attraction_hours)
            for a, stays in enumerate(zattr):
                terms = [(1, attr[a])] + [(-1, name) for name in stays]
                yield _row_text(f"att_def_{a}", terms, "=", 0)
            if attr:
                yield _row_text("att_min", [(1, name) for name in attr], ">=",
                                MIN_ATTRACTIONS_PER_DAY * p.days)

        yield _Rows("attraction", 1, rows(), (self.u, self.event, zattr, attr))

    def meal_slots(self, m: int) -> tuple[int, int]:
        day, kind = divmod(m, 3)
        lo_m, hi_m = MEAL_WINDOWS[MEAL_TYPES[kind]]
        spd = self.p.slots_per_day
        lo = day * spd + lo_m * spd // DAY_MINUTES
        hi = day * spd + hi_m * spd // DAY_MINUTES - 1
        return lo, min(hi, self.p.time_step - 1)

    def restaurant_rows(self):
        p = self.p
        rest, zrest, needeat = self.rest, self.zrest, self.needeat

        def rows():
            yield from self.stay_rows(zrest, p.hotel_num + p.attr_num, "res",
                                      self.s.restaurant_hours)
            for r, stays in enumerate(zrest):
                for m in range(3 * p.days):
                    lo, hi = self.meal_slots(m)
                    terms = [(1, rest[r][m])] + [(-1, name) for name in stays[lo:hi + 1]]
                    yield _row_text(f"res_def_{r}_{m}", terms, "=", 0)
            if rest:
                for m, need in enumerate(needeat):
                    terms = [(1, meals[m]) for meals in rest] + [(-1, need)]
                    yield _row_text(f"res_need_{m}", terms, "<=", 0)

        yield _Rows("restaurant", 1, rows(), (self.u, self.event, zrest, rest, needeat))

    def meal_rows(self):
        """A meal is only needed when the traveler is in town for its window."""
        big_m = self.p.time_step + 1
        dep_terms = [(-self.route_slot(route, go=False), name)
                     for route, name in zip(self.s.back_routes, self.interback)]
        arr_terms = [(self.route_slot(route, go=True), name)
                     for route, name in zip(self.s.go_routes, self.intergo)]

        def rows():
            for m, need in enumerate(self.needeat):
                a_m, b_m = self.meal_slots(m)
                yield _row_text(f"meal_dep_{m}", [(big_m, need)] + dep_terms, "<=",
                                big_m - a_m - 1)
                yield _row_text(f"meal_arr_{m}", [(big_m, need)] + arr_terms, "<=",
                                big_m + b_m - 1)

        yield _Rows("meal", 1, rows(), (self.needeat, self.intergo, self.interback))

    def route_slot(self, route, go: bool) -> int:
        """The slot an outbound ride arrives in on the first day, or a return
        ride departs in on the last."""
        if go:
            return self.slot_of(route.end, day=0)
        return self.slot_of(route.begin, day=self.p.days - 1)

    def route_station_idx(self, route, go: bool) -> int:
        name = route.to_station if go else route.from_station
        try:
            return self.p.loc_num + self.s.stations.index(name)
        except ValueError:
            raise BuildError(f"route {route.id} uses unknown station {name!r}") from None

    def urban_rows(self):
        """Transition choice y[(i, j, mode, t)] linked to occupancy and events.

        The hot loop of the build: nearly every row of a model is made here,
        seven per y variable (`_link_text`) and four per location and slot
        (`_flow_text`).
        """
        L, K = self.p.total_num, self.p.trans_num
        u, event, y = self.u, self.event, self.y
        ev1 = _ahead(event, 1)
        modes1 = [_ahead(u[L + k], 1) for k in range(K)]
        u2 = [_ahead(u[i], 2) for i in range(L)]
        links = (zip(y[i][j][k], u[i], event, modes1[k], ev1, u2[j])
                 for i in range(L) for j in range(L) for k in range(K))

        def flows():
            for i in range(L):
                outs = zip(*[y[i][j][k] for j in range(L) for k in range(K)])
                ins = zip(*[y[j][i][k] for j in range(L) for k in range(K)])
                yield from zip(repeat(i), count(), outs, ins, u[i], event, u2[i], ev1)

        yield _Rows("urban", 7, starmap(_link_text, chain.from_iterable(links)), (y, u, event))
        yield _Rows("urban", 4, starmap(_flow_text, flows()), (y, u, event))

    def transit_rows(self):
        """Aggregated mode-occupancy coupling for departures and arrivals."""
        L, K = self.p.total_num, self.p.trans_num
        u, y = self.u, self.y

        def rides():
            for i in range(L):
                for k in range(K):
                    deps = zip(*[y[i][j][k] for j in range(L)])
                    arrs = zip(*[y[j][i][k] for j in range(L)])
                    yield from zip(repeat(i), repeat(k), count(), deps, arrs,
                                   _ahead(u[L + k], 1))

        yield _Rows("transit", 2, starmap(_ride_text, rides()), (y, u))

    def intercity_rows(self):
        """Exactly one ride each way; station presence tied to the chosen ride.

        An outbound ride pins its arrival station at its arrival slot and
        keeps the traveler out of town before it; a return ride pins its
        departure station at its departure slot and keeps them out after it.
        Each route's text is its pin row and one exclusion row per slot, over
        the slot's in-town sum, which is spelled once for every route.
        """
        p, u = self.p, self.u
        reads = (u, self.intergo, self.interback)
        directions = ((self.intergo, self.s.go_routes, "go", True),
                      (self.interback, self.s.back_routes, "back", False))
        ones = (_row_text(f"int_{tag}_one", [(1, name) for name in family], "=", 1)
                for family, routes, tag, _ in directions if routes)
        town = [" + ".join(f"1 {names[t]}" for names in u[:p.loc_num])
                for t in range(p.time_step)]

        def routes():
            for family, routes, tag, go in directions:
                for r, (route, ride) in enumerate(zip(routes, family)):
                    slot = self.route_slot(route, go)
                    station = self.route_station_idx(route, go)
                    rows = [_row_text(f"int_{tag}pin_{r}", ((1, u[station][slot]), (-1, ride)),
                                      ">=", 0)]
                    for t, inside in enumerate(town):
                        if t < slot if go else t > slot:
                            inside = f"{inside} + 1 {ride}" if inside else f"1 {ride}"
                        rows.append(f" int_{tag}ex_{r}_{t}: {inside or '0 ' + ride} <= 1\n")
                    yield "".join(rows)

        yield _Rows("intercity", 1, ones, reads)
        yield _Rows("intercity", p.time_step + 1, routes(), reads)

    def query_rows(self):
        if self.budget is not None:
            budget = _row_text("qry_budget", self.cost_terms(), "<=", Decimal(str(self.budget)))
            yield _Rows("query", 1, [budget], (self.intergo, self.interback, self.attr,
                                               self.rest, self.hotel))

    def cost_terms(self) -> list:
        terms = []
        for route, name in zip(self.s.go_routes, self.intergo):
            terms.append((route.cost, name))
        for route, name in zip(self.s.back_routes, self.interback):
            terms.append((route.cost, name))
        for poi, name in zip(self.s.attractions, self.attr):
            terms.append((poi["price"], name))
        for poi, names in zip(self.s.restaurants, self.rest):
            terms += [(poi["price"], name) for name in names]
        for poi, names in zip(self.s.hotels, self.hotel):
            terms += [(poi["price"], name) for name in names]
        return terms

    def build(self, sink) -> None:
        """Pass each family of rows, in LP order, to `sink.extend` once the
        names it reads are checked."""
        for rows in chain(self.occupancy_rows(), self.hotel_rows(), self.attraction_rows(),
                          self.restaurant_rows(), self.meal_rows(), self.urban_rows(),
                          self.transit_rows(), self.intercity_rows(), self.query_rows()):
            self.check_declared(rows.category, *rows.reads)
            sink.extend(rows.category, rows.size, rows.texts)
