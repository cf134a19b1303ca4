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
step, and the name itself is the key in the builder's table. A row spells its
own coefficients where it is written, as (coef, name) terms or in its shape's
text.

The builder declares every variable, then passes each row in LP order to its
one sink, the LP writer of lp_writer.write_lp, which writes the text and holds
no row. Most families pass one row at a time with `append`, as a tuple
(name, terms, sense, rhs, category). The urban and transit families, nearly
every row of a model, pass theirs by shape with `extend_shape`: a `_Shape` is
one form of row over an instance's variable names, whose LP text one f-string
spells, and the builder checks such a family's names against the declared
variables once rather than term by term.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import chain, count, filterfalse, repeat
from typing import Callable, NamedTuple

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


class _Shape(NamedTuple):
    """One form of row over an instance's variable names: `text(*names)` spells
    its `size` rows as LP lines, coefficients included."""

    category: str
    size: int
    text: Callable[..., str]


def _link_text(y, a, b, c, d, e) -> str:
    tag = y[1:]
    return (f" urb_l0{tag}: 1 {y} - 1 {a} <= 0\n urb_l1{tag}: 1 {y} - 1 {b} <= 0\n"
            f" urb_l2{tag}: 1 {y} - 1 {c} <= 0\n urb_l3{tag}: 1 {y} - 1 {c} <= 0\n"
            f" urb_l4{tag}: 1 {y} - 1 {d} <= 0\n urb_l5{tag}: 1 {y} - 1 {e} <= 0\n"
            f" urb_ge{tag}: 1 {y} - 1 {a} - 1 {b} - 1 {c} - 1 {c} - 1 {d} - 1 {e} >= -5\n")


def _sum_text(names) -> str:
    return " + 1 ".join(names)


def _flow_text(i, t, outs, ins, u, e, u2, e1) -> str:
    out, inn = _sum_text(outs), _sum_text(ins)
    return (f" urb_outu_{i}_{t}: 1 {out} - 1 {u} <= 0\n"
            f" urb_oute_{i}_{t}: 1 {out} - 1 {e} <= 0\n"
            f" urb_inu_{i}_{t}: 1 {inn} - 1 {u2} <= 0\n"
            f" urb_ine_{i}_{t}: 1 {inn} - 1 {e1} <= 0\n")


# Per y[(i, j, mode, t)] with names (y, u[i][t], event[t], u[mode][t+1],
# event[t+1], u[j][t+2]): y implies each condition (urb_l0..urb_l5, the mode
# twice) and their conjunction implies y (urb_ge). Each row is named by the
# suffix "_{i}_{j}_{k}_{t}" of its y variable.
_URBAN_LINKS = _Shape("urban", 7, _link_text)
# Per location i and slot t: at most one ride leaves i at t, and only if the
# traveler is at i with an event at t (urb_outu, urb_oute); at most one ride
# reaches i from t, and only if they are at i at t+2 after an event at t+1
# (urb_inu, urb_ine).
_URBAN_FLOWS = _Shape("urban", 4, _flow_text)


def _ride_text(i, k, t, deps, arrs, m) -> str:
    return (f" trn_dep_{i}_{k}_{t}: 1 {_sum_text(deps)} - 1 {m} <= 0\n"
            f" trn_arr_{i}_{k}_{t}: 1 {_sum_text(arrs)} - 1 {m} <= 0\n")


# Per location i, mode k and slot t: a ride out of i (trn_dep) or into i
# (trn_arr) by mode k at t has the traveler in mode k at t+1.
_TRANSIT = _Shape("transit", 2, _ride_text)


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

    def row(self, name: str, terms, sense: str, rhs, category: str) -> None:
        self.sink.append((name, terms, sense, rhs, category))

    def check_declared(self, category: str, *families: list) -> None:
        """Refuse a name of `families` missing from `vars`: a family whose rows
        go to the sink by shape has its names checked here, once, not per term."""
        names = chain.from_iterable(_flat(family) for family in families)
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

    def occupancy_rows(self) -> None:
        """One place at a time; changes only on events; events move exactly 2."""
        T = self.p.time_step
        u, delta, event = self.u, self.delta, self.event
        for i in range(self.n_positions):
            for t in range(T - 1):
                up, ev = (1, delta[i][t]), (-1, event[t])
                ut, ut1 = u[i][t], u[i][t + 1]
                self.row(f"occ_dup_{i}_{t}", (up, (1, ut), (-1, ut1)), ">=", 0, "occupancy")
                self.row(f"occ_ddn_{i}_{t}", (up, (-1, ut), (1, ut1)), ">=", 0, "occupancy")
                self.row(f"occ_evup_{i}_{t}", ((1, ut1), (-1, ut), ev), "<=", 0, "occupancy")
                self.row(f"occ_evdn_{i}_{t}", ((1, ut), (-1, ut1), ev), "<=", 0, "occupancy")
        for t in range(T - 1):
            terms = [(1, delta[i][t]) for i in range(self.n_positions)]
            terms.append((-2, event[t]))
            self.row(f"occ_change_{t}", terms, "=", 0, "occupancy")
        for t in range(T):
            terms = [(1, u[i][t]) for i in range(self.n_positions)]
            self.row(f"occ_one_{t}", terms, "=", 1, "occupancy")

    def conjunction(self, z: str, a: str, b: str, prefix: str, category: str) -> None:
        """z = a AND b via three rows (big-M = 1, all binary)."""
        z, a, b = (1, z), (-1, a), (-1, b)
        self.row(f"{prefix}_le1", (z, a), "<=", 0, category)
        self.row(f"{prefix}_le2", (z, b), "<=", 0, category)
        self.row(f"{prefix}_ge", (z, a, b), ">=", -1, category)

    def stay_rows(self, z: list, first: int, prefix: str, category: str,
                  hours=None) -> None:
        """The stay rule of one POI table, whose rows sit at positions `first`
        on: z[n][t] = u[first+n][t] AND event[t]; with the table's `hours`,
        also the `{prefix}_check_*` row that pins u to 0 in a closed slot."""
        p = self.p
        event = self.event
        for n, stays in enumerate(z):
            u = self.u[first + n]
            opens = None if hours is None else open_slots(hours[n], p.slot_minutes)
            for t in range(p.time_step):
                self.conjunction(stays[t], u[t], event[t], f"{prefix}_z_{n}_{t}", category)
                if opens is not None:
                    self.row(f"{prefix}_check_{n}_{t}", ((1, u[t]),), "<=",
                             opens[t % p.slots_per_day], category)

    def hotel_rows(self) -> None:
        p = self.p
        self.stay_rows(self.zhotel, 0, "hot", "hotel")
        for h in range(p.hotel_num):
            for d in range(p.days):
                terms = [(1, self.hotel[h][d])]
                terms += [(-1, self.zhotel[h][t]) for t in self.day_slots(d)]
                self.row(f"hot_def_{h}_{d}", terms, "=", 0, "hotel")
        for d in range(p.days):
            terms = [(1, self.hotel[h][d]) for h in range(p.hotel_num)]
            if terms:
                self.row(f"hot_one_{d}", terms, "=", 1, "hotel")

    def attraction_rows(self) -> None:
        p = self.p
        self.stay_rows(self.zattr, p.hotel_num, "att", "attraction", self.s.attraction_hours)
        for a in range(p.attr_num):
            terms = [(1, self.attr[a])] + [(-1, name) for name in self.zattr[a]]
            self.row(f"att_def_{a}", terms, "=", 0, "attraction")
        if p.attr_num:
            self.row("att_min", [(1, name) for name in self.attr], ">=",
                     MIN_ATTRACTIONS_PER_DAY * p.days, "attraction")

    def meal_slots(self, m: int) -> tuple[int, int]:
        day, kind = divmod(m, 3)
        lo_m, hi_m = MEAL_WINDOWS[MEAL_TYPES[kind]]
        spd = self.p.slots_per_day
        lo = day * spd + lo_m * spd // DAY_MINUTES
        hi = day * spd + hi_m * spd // DAY_MINUTES - 1
        return lo, min(hi, self.p.time_step - 1)

    def restaurant_rows(self) -> None:
        p = self.p
        self.stay_rows(self.zrest, p.hotel_num + p.attr_num, "res", "restaurant",
                       self.s.restaurant_hours)
        for r in range(p.rest_num):
            for m in range(3 * p.days):
                lo, hi = self.meal_slots(m)
                terms = [(1, self.rest[r][m])]
                terms += [(-1, name) for name in self.zrest[r][lo:hi + 1]]
                self.row(f"res_def_{r}_{m}", terms, "=", 0, "restaurant")
        if p.rest_num:
            for m in range(3 * p.days):
                terms = [(1, self.rest[r][m]) for r in range(p.rest_num)]
                terms.append((-1, self.needeat[m]))
                self.row(f"res_need_{m}", terms, "<=", 0, "restaurant")

    def meal_rows(self) -> None:
        """A meal is only needed when the traveler is in town for its window."""
        p = self.p
        big_m = p.time_step + 1
        dep_terms = [(-self.route_slot(route, go=False), name)
                     for route, name in zip(self.s.back_routes, self.interback)]
        arr_terms = [(self.route_slot(route, go=True), name)
                     for route, name in zip(self.s.go_routes, self.intergo)]
        for m, need in enumerate(self.needeat):
            a_m, b_m = self.meal_slots(m)
            terms = [(big_m, need)] + dep_terms
            self.row(f"meal_dep_{m}", terms, "<=", big_m - a_m - 1, "meal")
            terms = [(big_m, need)] + arr_terms
            self.row(f"meal_arr_{m}", terms, "<=", big_m + b_m - 1, "meal")

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

    def urban_rows(self) -> None:
        """Transition choice y[(i, j, mode, t)] linked to occupancy and events.

        The hot loop of the build: nearly every row of a model is made here,
        so the rows go to the sink by shape (`_URBAN_LINKS` per y variable,
        `_URBAN_FLOWS` per location and slot) with `extend_shape`, and the
        names they read are checked once here rather than term by term.
        """
        L, K = self.p.total_num, self.p.trans_num
        u, event, y = self.u, self.event, self.y
        self.check_declared("urban", y, u, event)
        ev1 = _ahead(event, 1)
        modes1 = [_ahead(u[L + k], 1) for k in range(K)]
        u2 = [_ahead(u[i], 2) for i in range(L)]

        def links():
            for i in range(L):
                for j in range(L):
                    for k in range(K):
                        yield from zip(y[i][j][k], u[i], event, modes1[k], ev1, u2[j])

        def flows():
            for i in range(L):
                outs = zip(*[y[i][j][k] for j in range(L) for k in range(K)])
                ins = zip(*[y[j][i][k] for j in range(L) for k in range(K)])
                yield from zip(repeat(i), count(), outs, ins, u[i], event, u2[i], ev1)

        self.sink.extend_shape(_URBAN_LINKS, links())
        self.sink.extend_shape(_URBAN_FLOWS, flows())

    def transit_rows(self) -> None:
        """Aggregated mode-occupancy coupling for departures and arrivals."""
        L, K = self.p.total_num, self.p.trans_num
        u, y = self.u, self.y
        self.check_declared("transit", y, u)

        def rides():
            for i in range(L):
                for k in range(K):
                    deps = zip(*[y[i][j][k] for j in range(L)])
                    arrs = zip(*[y[j][i][k] for j in range(L)])
                    yield from zip(repeat(i), repeat(k), count(), deps, arrs,
                                   _ahead(u[L + k], 1))

        self.sink.extend_shape(_TRANSIT, rides())

    def intercity_rows(self) -> None:
        """Exactly one ride each way; station presence tied to the chosen ride.

        An outbound ride pins its arrival station at its arrival slot and
        keeps the traveler out of town before it; a return ride pins its
        departure station at its departure slot and keeps them out after it.
        """
        p = self.p
        u = self.u
        directions = ((self.intergo, self.s.go_routes, "go", True),
                      (self.interback, self.s.back_routes, "back", False))
        for family, routes, tag, _ in directions:
            if routes:
                self.row(f"int_{tag}_one", [(1, name) for name in family], "=", 1, "intercity")
        for family, routes, tag, go in directions:
            for r, route in enumerate(routes):
                slot = self.route_slot(route, go)
                station = self.route_station_idx(route, go)
                self.row(f"int_{tag}pin_{r}", ((1, u[station][slot]), (-1, family[r])),
                         ">=", 0, "intercity")
                for t in range(p.time_step):
                    away = int(t < slot if go else t > slot)
                    terms = [(1, u[i][t]) for i in range(p.loc_num)]
                    terms.append((away, family[r]))
                    self.row(f"int_{tag}ex_{r}_{t}", terms, "<=", 1, "intercity")

    def query_rows(self) -> None:
        if self.budget is None:
            return
        terms = self.cost_terms()
        self.row("qry_budget", terms, "<=", Decimal(str(self.budget)), "query")

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
        """Pass every row, in LP order, to `sink.append`, or by shape to `sink.extend_shape`."""
        self.sink = sink
        self.occupancy_rows()
        self.hotel_rows()
        self.attraction_rows()
        self.restaurant_rows()
        self.meal_rows()
        self.urban_rows()
        self.transit_rows()
        self.intercity_rows()
        self.query_rows()
