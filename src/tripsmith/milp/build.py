"""Occupancy-based mixed-integer model of one itinerary.

The traveler's position over discrete time slots is a one-hot matrix
u[idx][t] (locations, stations and in-transit pseudo-locations); transitions
are binary events linked to transport-choice variables y[(i, j, mode, t)].
Visit counters for hotels, attractions and restaurants are derived from
position-change conjunctions; openness is baked in as constant `check`
profiles that pin u to zero in closed slots. Every implication is linearized
with big-M = 1 where all variables are binary; the count constraints use
integer bounds instead.

Constraint rows carry a category label and a deterministic name, and for
fixed parameters the number of rows per category is a closed form of the
parameters alone (see sizes.count_sizes) - the model and the formula are
tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import BuildError
from ..evaluation.env_rules import MEAL_WINDOWS
from ..plan.model import MEAL_TYPES
from ..timeutil import to_minutes
from .params import DAY_MINUTES, MilpParams, MilpSlice


@dataclass(frozen=True, slots=True)
class Row:
    name: str
    terms: tuple            # ((coef, var), ...)
    sense: str              # "<=", ">=", "="
    rhs: object             # int | Decimal
    category: str


@dataclass(frozen=True, slots=True)
class VarInfo:
    name: str
    kind: str               # "binary" | "integer"
    lo: int = 0
    hi: int = 1
    category: str = ""


@dataclass
class MilpModel:
    variables: dict[str, VarInfo]
    rows: list[Row]
    objective: tuple = ()
    check: dict[str, bool] = field(default_factory=dict)
    params: MilpParams | None = None

    def var_count_by_category(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for info in self.variables.values():
            out[info.category] = out.get(info.category, 0) + 1
        return out

    def row_count_by_category(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.category] = out.get(row.category, 0) + 1
        return out

    def validate_references(self) -> None:
        for row in self.rows:
            for _, var in row.terms:
                if var not in self.variables:
                    raise BuildError(f"row {row.name} references undeclared {var}")


class _Builder:
    def __init__(self, slice_: MilpSlice, params: MilpParams, query: dict | None):
        params.validate()
        slice_.check_against(params)
        self.s = slice_
        self.p = params
        self.query = query or {}
        self.vars: dict[str, VarInfo] = {}
        self.rows: list[Row] = []
        self.check: dict[str, bool] = {}
        # index layout: hotels, attractions, restaurants, stations, transit modes
        self.loc_names = slice_.location_names()
        self.n_positions = params.total_num + params.trans_num

    # -- declarations -----------------------------------------------------

    def binary(self, name: str, category: str) -> str:
        self.vars[name] = VarInfo(name, "binary", 0, 1, category)
        return name

    def integer(self, name: str, hi: int, category: str) -> str:
        self.vars[name] = VarInfo(name, "integer", 0, hi, category)
        return name

    def row(self, name: str, terms, sense: str, rhs, category: str) -> None:
        self.rows.append(Row(name, tuple(terms), sense, rhs, category))

    # index helpers
    def hotel_idx(self, h: int) -> int:
        return h

    def attr_idx(self, a: int) -> int:
        return self.p.hotel_num + a

    def rest_idx(self, r: int) -> int:
        return self.p.hotel_num + self.p.attr_num + r

    def mode_idx(self, k: int) -> int:
        return self.p.total_num + k

    @staticmethod
    def u(i: int, t: int) -> str:
        return f"u_{i}_{t}"

    def day_slots(self, d: int) -> range:
        spd = self.p.slots_per_day
        return range(d * spd, (d + 1) * spd)

    def slot_of(self, clock: str, day: int = 0) -> int:
        slot = day * self.p.slots_per_day + to_minutes(clock) // self.p.slot_minutes
        return max(0, min(self.p.time_step - 1, slot))

    def open_in_slot(self, row: dict, t: int) -> bool:
        """Open for the whole slot (conservative)."""
        spd = self.p.slots_per_day
        start = (t % spd) * self.p.slot_minutes
        end = start + self.p.slot_minutes
        return to_minutes(row["opentime"]) <= start and end <= to_minutes(row["endtime"])

    # -- variables ----------------------------------------------------------

    def declare_variables(self) -> None:
        p = self.p
        T = p.time_step
        for i in range(self.n_positions):
            for t in range(T):
                self.binary(self.u(i, t), "u")
        for i in range(self.n_positions):
            for t in range(T - 1):
                self.binary(f"delta_{i}_{t}", "delta")
        for t in range(T):
            self.binary(f"event_{t}", "event")
        for h in range(p.hotel_num):
            for d in range(p.days):
                self.integer(f"hotel_{h}_{d}", p.slots_per_day, "hotel")
        for h in range(p.hotel_num):
            for t in range(T):
                self.binary(f"zhotel_{h}_{t}", "zhotel")
        for a in range(p.attr_num):
            self.integer(f"attr_{a}", T, "attr")
        for a in range(p.attr_num):
            for t in range(T):
                self.binary(f"zattr_{a}_{t}", "zattr")
        for r in range(p.rest_num):
            for m in range(3 * p.days):
                self.integer(f"rest_{r}_{m}", T, "rest")
        for r in range(p.rest_num):
            for t in range(T):
                self.binary(f"zrest_{r}_{t}", "zrest")
        for i in range(p.total_num):
            for j in range(p.total_num):
                for k in range(p.trans_num):
                    for t in range(T):
                        self.binary(f"y_{i}_{j}_{k}_{t}", "y")
        for m in range(3 * p.days):
            self.binary(f"needeat_{m}", "needeat")
        for g in range(p.go_num):
            self.binary(f"intergo_{g}", "intergo")
        for b in range(p.back_num):
            self.binary(f"interback_{b}", "interback")

    # -- constraint groups ---------------------------------------------------

    def occupancy_rows(self) -> None:
        """One place at a time; changes only on events; events move exactly 2."""
        T = self.p.time_step
        for i in range(self.n_positions):
            for t in range(T - 1):
                up, ut, ut1 = f"delta_{i}_{t}", self.u(i, t), self.u(i, t + 1)
                self.row(f"occ_dup_{i}_{t}", ((1, up), (1, ut), (-1, ut1)), ">=", 0, "occupancy")
                self.row(f"occ_ddn_{i}_{t}", ((1, up), (-1, ut), (1, ut1)), ">=", 0, "occupancy")
                ev = f"event_{t}"
                self.row(f"occ_evup_{i}_{t}", ((1, ut1), (-1, ut), (-1, ev)), "<=", 0, "occupancy")
                self.row(f"occ_evdn_{i}_{t}", ((1, ut), (-1, ut1), (-1, ev)), "<=", 0, "occupancy")
        for t in range(T - 1):
            terms = [(1, f"delta_{i}_{t}") for i in range(self.n_positions)]
            terms.append((-2, f"event_{t}"))
            self.row(f"occ_change_{t}", terms, "=", 0, "occupancy")
        for t in range(T):
            terms = [(1, self.u(i, t)) for i in range(self.n_positions)]
            self.row(f"occ_one_{t}", terms, "=", 1, "occupancy")

    def conjunction(self, z: str, a: str, b: str, prefix: str, category: str) -> None:
        """z = a AND b via three rows (big-M = 1, all binary)."""
        self.row(f"{prefix}_le1", ((1, z), (-1, a)), "<=", 0, category)
        self.row(f"{prefix}_le2", ((1, z), (-1, b)), "<=", 0, category)
        self.row(f"{prefix}_ge", ((1, z), (-1, a), (-1, b)), ">=", -1, category)

    def hotel_rows(self) -> None:
        p = self.p
        for h in range(p.hotel_num):
            idx = self.hotel_idx(h)
            for t in range(p.time_step):
                self.conjunction(f"zhotel_{h}_{t}", self.u(idx, t), f"event_{t}",
                                 f"hot_z_{h}_{t}", "hotel")
        for h in range(p.hotel_num):
            for d in range(p.days):
                terms = [(1, f"hotel_{h}_{d}")]
                terms += [(-1, f"zhotel_{h}_{t}") for t in self.day_slots(d)]
                self.row(f"hot_def_{h}_{d}", terms, "=", 0, "hotel")
        for d in range(p.days):
            terms = [(1, f"hotel_{h}_{d}") for h in range(p.hotel_num)]
            if terms:
                self.row(f"hot_one_{d}", terms, "=", 1, "hotel")

    def attraction_rows(self) -> None:
        p = self.p
        for a, poi in enumerate(self.s.attractions):
            idx = self.attr_idx(a)
            for t in range(p.time_step):
                self.conjunction(f"zattr_{a}_{t}", self.u(idx, t), f"event_{t}",
                                 f"att_z_{a}_{t}", "attraction")
                open_now = self.open_in_slot(poi, t)
                self.check[self.u(idx, t)] = open_now
                self.row(f"att_check_{a}_{t}", ((1, self.u(idx, t)),), "<=",
                         int(open_now), "attraction")
        for a in range(p.attr_num):
            terms = [(1, f"attr_{a}")]
            terms += [(-1, f"zattr_{a}_{t}") for t in range(p.time_step)]
            self.row(f"att_def_{a}", terms, "=", 0, "attraction")
        if p.attr_num:
            min_attr = int(self.query.get("min_attr", 1))
            terms = [(1, f"attr_{a}") for a in range(p.attr_num)]
            self.row("att_min", terms, ">=", min_attr * p.days, "attraction")

    def meal_slots(self, m: int) -> tuple[int, int]:
        day, kind = divmod(m, 3)
        lo_m, hi_m = MEAL_WINDOWS[MEAL_TYPES[kind]]
        spd = self.p.slots_per_day
        lo = day * spd + lo_m * spd // DAY_MINUTES
        hi = day * spd + hi_m * spd // DAY_MINUTES - 1
        return lo, min(hi, self.p.time_step - 1)

    def restaurant_rows(self) -> None:
        p = self.p
        for r, poi in enumerate(self.s.restaurants):
            idx = self.rest_idx(r)
            for t in range(p.time_step):
                self.conjunction(f"zrest_{r}_{t}", self.u(idx, t), f"event_{t}",
                                 f"res_z_{r}_{t}", "restaurant")
                open_now = self.open_in_slot(poi, t)
                self.check[self.u(idx, t)] = open_now
                self.row(f"res_check_{r}_{t}", ((1, self.u(idx, t)),), "<=",
                         int(open_now), "restaurant")
        for r in range(p.rest_num):
            for m in range(3 * p.days):
                lo, hi = self.meal_slots(m)
                terms = [(1, f"rest_{r}_{m}")]
                terms += [(-1, f"zrest_{r}_{t}") for t in range(lo, hi + 1)]
                self.row(f"res_def_{r}_{m}", terms, "=", 0, "restaurant")
        if p.rest_num:
            for m in range(3 * p.days):
                terms = [(1, f"rest_{r}_{m}") for r in range(p.rest_num)]
                terms.append((-1, f"needeat_{m}"))
                self.row(f"res_need_{m}", terms, "<=", 0, "restaurant")

    def meal_rows(self) -> None:
        """A meal is only needed when the traveler is in town for its window."""
        p = self.p
        big_m = p.time_step + 1
        dep_terms = [(-self.route_slot(b, go=False), f"interback_{b}")
                     for b in range(p.back_num)]
        arr_terms = [(self.route_slot(g, go=True), f"intergo_{g}")
                     for g in range(p.go_num)]
        for m in range(3 * p.days):
            a_m, b_m = self.meal_slots(m)
            terms = [(big_m, f"needeat_{m}")] + dep_terms
            self.row(f"meal_dep_{m}", terms, "<=", big_m - a_m - 1, "meal")
            terms = [(big_m, f"needeat_{m}")] + arr_terms
            self.row(f"meal_arr_{m}", terms, "<=", big_m + b_m - 1, "meal")

    def route_slot(self, index: int, go: bool) -> int:
        if go:
            route = self.s.go_routes[index]
            return self.slot_of(route.end, day=0)
        route = self.s.back_routes[index]
        return self.slot_of(route.begin, day=self.p.days - 1)

    def route_station_idx(self, route, go: bool) -> int:
        name = route.to_station if go else route.from_station
        try:
            return self.p.loc_num + self.s.stations.index(name)
        except ValueError:
            raise BuildError(f"route {route.id} uses unknown station {name!r}") from None

    def urban_rows(self) -> None:
        """Transition choice y[(i, j, mode, t)] linked to occupancy and events."""
        p = self.p
        T = p.time_step
        L, K = p.total_num, p.trans_num
        for i in range(L):
            for j in range(L):
                for k in range(K):
                    mode = self.mode_idx(k)
                    for t in range(T):
                        y = f"y_{i}_{j}_{k}_{t}"
                        t1 = min(t + 1, T - 1)
                        t2 = min(t + 2, T - 1)
                        six = (
                            self.u(i, t), f"event_{t}", self.u(mode, t1),
                            self.u(mode, t1), f"event_{t1}", self.u(j, t2),
                        )
                        for n, ref in enumerate(six):
                            self.row(f"urb_l{n}_{i}_{j}_{k}_{t}",
                                     ((1, y), (-1, ref)), "<=", 0, "urban")
                        terms = [(1, y)] + [(-1, ref) for ref in six]
                        self.row(f"urb_ge_{i}_{j}_{k}_{t}", terms, ">=", -5, "urban")
        for i in range(L):
            for t in range(T):
                out_terms = [(1, f"y_{i}_{j}_{k}_{t}")
                             for j in range(L) for k in range(K)]
                in_terms = [(1, f"y_{j}_{i}_{k}_{t}")
                            for j in range(L) for k in range(K)]
                t1 = min(t + 1, T - 1)
                t2 = min(t + 2, T - 1)
                self.row(f"urb_outu_{i}_{t}", out_terms + [(-1, self.u(i, t))],
                         "<=", 0, "urban")
                self.row(f"urb_oute_{i}_{t}", out_terms + [(-1, f"event_{t}")],
                         "<=", 0, "urban")
                self.row(f"urb_inu_{i}_{t}", in_terms + [(-1, self.u(i, t2))],
                         "<=", 0, "urban")
                self.row(f"urb_ine_{i}_{t}", in_terms + [(-1, f"event_{t1}")],
                         "<=", 0, "urban")

    def transit_rows(self) -> None:
        """Aggregated mode-occupancy coupling for departures and arrivals."""
        p = self.p
        for i in range(p.total_num):
            for k in range(p.trans_num):
                mode = self.mode_idx(k)
                for t in range(p.time_step):
                    t1 = min(t + 1, p.time_step - 1)
                    dep = [(1, f"y_{i}_{j}_{k}_{t}") for j in range(p.total_num)]
                    arr = [(1, f"y_{j}_{i}_{k}_{t}") for j in range(p.total_num)]
                    self.row(f"trn_dep_{i}_{k}_{t}", dep + [(-1, self.u(mode, t1))],
                             "<=", 0, "transit")
                    self.row(f"trn_arr_{i}_{k}_{t}", arr + [(-1, self.u(mode, t1))],
                             "<=", 0, "transit")

    def intercity_rows(self) -> None:
        """Exactly one ride each way; station presence tied to the chosen ride."""
        p = self.p
        poi_range = range(p.loc_num)
        if p.go_num:
            self.row("int_go_one", [(1, f"intergo_{g}") for g in range(p.go_num)],
                     "=", 1, "intercity")
        if p.back_num:
            self.row("int_back_one", [(1, f"interback_{b}") for b in range(p.back_num)],
                     "=", 1, "intercity")

        for g, route in enumerate(self.s.go_routes):
            arr = self.route_slot(g, go=True)
            station = self.route_station_idx(route, go=True)
            self.row(f"int_gopin_{g}", ((1, self.u(station, arr)), (-1, f"intergo_{g}")),
                     ">=", 0, "intercity")
            for t in range(p.time_step):
                before = 1 if t < arr else 0
                terms = [(1, self.u(i, t)) for i in poi_range]
                terms.append((before, f"intergo_{g}"))
                self.row(f"int_goex_{g}_{t}", terms, "<=", 1, "intercity")
        for b, route in enumerate(self.s.back_routes):
            dep = self.route_slot(b, go=False)
            station = self.route_station_idx(route, go=False)
            self.row(f"int_backpin_{b}", ((1, self.u(station, dep)), (-1, f"interback_{b}")),
                     ">=", 0, "intercity")
            for t in range(p.time_step):
                after = 1 if t > dep else 0
                terms = [(1, self.u(i, t)) for i in poi_range]
                terms.append((after, f"interback_{b}"))
                self.row(f"int_backex_{b}_{t}", terms, "<=", 1, "intercity")

    def query_rows(self) -> None:
        budget = self.query.get("budget")
        if budget is None:
            return
        terms = self.cost_terms()
        self.row("qry_budget", terms, "<=", Decimal(str(budget)), "query")

    def cost_terms(self) -> list:
        p = self.p
        terms = []
        for g, route in enumerate(self.s.go_routes):
            terms.append((route.cost, f"intergo_{g}"))
        for b, route in enumerate(self.s.back_routes):
            terms.append((route.cost, f"interback_{b}"))
        for a, poi in enumerate(self.s.attractions):
            terms.append((poi["price"], f"attr_{a}"))
        for r, poi in enumerate(self.s.restaurants):
            for m in range(3 * p.days):
                terms.append((poi["price"], f"rest_{r}_{m}"))
        for h, poi in enumerate(self.s.hotels):
            for d in range(p.days):
                terms.append((poi["price"], f"hotel_{h}_{d}"))
        return terms

    def build(self) -> MilpModel:
        self.declare_variables()
        self.occupancy_rows()
        self.hotel_rows()
        self.attraction_rows()
        self.restaurant_rows()
        self.meal_rows()
        self.urban_rows()
        self.transit_rows()
        self.intercity_rows()
        self.query_rows()
        model = MilpModel(
            variables=self.vars,
            rows=self.rows,
            objective=tuple(self.cost_terms()),
            check=self.check,
            params=self.p,
        )
        model.validate_references()
        return model


def build_model(db_slice: MilpSlice, params: MilpParams, query: dict | None = None) -> MilpModel:
    """Instantiate the full model for one trip slice."""
    return _Builder(db_slice, params, query).build()
