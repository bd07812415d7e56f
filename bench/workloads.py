"""The four workloads: seeded inputs, operations and their checks.

Every workload is built from ``random.Random(f"{name}:{seed}")`` and runs in
rounds.  A round has a fixed composition (so many operations of each kind,
on each lattice) and a seeded order; only the instances inside each stratum
depend on the seed, and they are chosen within narrow cost bands, so that
two seeds give rounds of nearly the same cost.  See README.md for why each
workload exists and which layers it drives.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import signal
import sys
import time
from pathlib import Path

import checkers as ck

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
SCHEMA = ROOT / "src" / "k3cone" / "schema" / "report.schema.json"


class Exhausted(Exception):
    """No fresh inputs are left for another whole round."""


class Op:
    """One timed call into the package and the check of its output."""

    failed_expected = False

    def __init__(self, label, call, check):
        self.label, self.call, self.check = label, call, check

    def execute(self):
        """Run the call; returns (result, cpu seconds, wall seconds, ok)."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = self.call()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        return result, cpu, wall, True


class KnownFault(Op):
    """An operation on a fixed input that fails every time because of a fault
    in the package: it counts as failed while ``mended(result)`` is false, and
    is checked like any other operation once that holds."""

    failed_expected = True

    def __init__(self, label, call, check, mended):
        super().__init__(label, call, check)
        self.mended = mended

    def execute(self):
        result, cpu, wall, _ = super().execute()
        return result, cpu, wall, self.mended(result)


# ---------------------------------------------------------------- lattices


def ua(k: int):
    """Gram matrix of U + A1^k (A1 = <-2>)."""
    n = 2 + k
    return tuple(
        tuple(1 if {i, j} == {0, 1} else (-2 if i == j >= 2 else 0) for j in range(n))
        for i in range(n)
    )


def diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def fixture(name: str):
    """(gram, ample, generators) of a problem file, read without the package."""
    data = json.loads((PROBLEMS / name).read_text())
    gram = tuple(tuple(int(x) for x in row) for row in data["gram"])
    ample = tuple(int(x) for x in data["ample"])
    gens = tuple(tuple(tuple(int(x) for x in row) for row in m) for m in data.get("generators", []))
    return gram, ample, gens


def ua1_amples():
    """Ample classes of U + A1 of norm 20 to 30, off every wall."""
    g1 = ua(1)
    return [(a, b, c) for a in range(1, 13) for b in range(1, 13) for c in (-3, -2, -1, 1, 2, 3)
            if 20 <= ck.norm(g1, (a, b, c)) <= 30 and not ck.on_a_wall(g1, (a, b, c))]


def ua_images(ample):
    """Images of an ample class under the isometries of U + A1^k that permute
    and negate the A1 coordinates or swap the two U coordinates."""
    head, tail = ample[:2], ample[2:]
    out = set()
    for h in (head, head[::-1]):
        for perm in itertools.permutations(tail):
            for signs in itertools.product((1, -1), repeat=len(tail)):
                out.add(tuple(h) + tuple(s * c for s, c in zip(signs, perm)))
    return sorted(out)


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def change_basis(rng, gram, ample):
    """An isometric copy (P^T G P, P^-1 H) for a seeded unimodular P: a signed
    permutation of the coordinates after the first, then one elementary
    column operation.  Larger changes of basis spread the cost too widely."""
    n = len(gram)
    order = [0] + rng.sample(range(1, n), n - 1)
    signs = [1] + [rng.choice((-1, 1)) for _ in range(n - 1)]
    perm = tuple(tuple(signs[j] if order[j] == i else 0 for j in range(n)) for i in range(n))
    i, j = rng.sample(range(n), 2)
    c = rng.choice((-1, 1))
    elem = tuple(tuple(int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n)) for a in range(n))
    p = _mat_mul(perm, elem)
    pt = tuple(zip(*p))
    return _mat_mul(_mat_mul(pt, gram), p), ck.mat_vec(_inverse_unimodular(p), ample)


# diag(2, -6) has no roots (x^2 - 3 y^2 = -1 has no solution mod 4), so its
# chamber is the whole positive cone; the Pell automorph of x^2 - 3 y^2 and
# the flip y -> -y generate an infinite dihedral group of chamber symmetries.
PELL3 = ((2, 3), (1, 2))
FLIP = ((1, 0), (0, -1))


def rank2_lattices():
    """name -> (gram, generators, ample classes, certified): a fixed pool of
    rank-2 lattices whose chamber-preserving groups are infinite (L_R,
    diag(2,-6)) or finite (L_P).  ``certified`` says whether the chamber is
    finite polyhedral: L_P has two walls, L_R and diag(2,-6) have no roots, so
    their chambers are round.  The ample classes are ones on which
    verify_fundamental passes at sampling seed 0; (4, 1), (5, 1) and (5, 2) on
    diag(2,-6), where greedy descent ends outside the domain, are left out,
    and (4, 1) is the domains workload's known fault instead.  (1, 3) on L_R
    is left out because its failure depends on the sampling seed."""
    lp = fixture("l_p.json")
    lr = fixture("l_r.json")
    return {
        "L_P": (lp[0], lp[2], [(2, 1), (3, 2), (3, 1), (4, 3), (5, 3), (4, 1), (5, 4), (7, 5)], True),
        "L_R": (lr[0], lr[2], [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (2, 5)], False),
        "diag(2,-6)": (diag(2, -6), (PELL3, FLIP), [(1, 0), (2, 0), (2, 1), (3, 1)], False),
    }


def cusp_class(gram, ample, degree: float, kappa: float, reach: int = 20):
    """Rank 2: a class of degree about ``degree`` near an isotropic ray, with
    norm as close as the lattice allows to ``kappa * degree``.

    Near the cusp the separating bound is about sqrt(2 degree / kappa), so a
    fixed ``kappa`` makes the walk's cost grow steadily with the degree.
    """
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    if a != 0:
        e = ((-b + math.sqrt(b * b - a * c)) / a, 1.0)
    else:
        e = (1.0, 0.0)
    gh = (gram[0][0] * ample[0] + gram[0][1] * ample[1], gram[1][0] * ample[0] + gram[1][1] * ample[1])
    eh = e[0] * gh[0] + e[1] * gh[1]
    scale = degree / eh
    x0, y0 = round(e[0] * scale), round(e[1] * scale)
    target = kappa * degree
    best = None
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            v = (x0 + dx, y0 + dy)
            nv = ck.norm(gram, v)
            if nv > 0 and ck.pairing(gram, v, ample) > 0:
                key = (abs(nv - target), v)
                if best is None or key < best:
                    best = key
    return best[1]


def class_with(rng, gram, ample, degree: float, rho: float):
    """A positive-cone class of degree about ``degree`` and x.x H.H / (x.H)^2
    about ``rho``: rho near 1 is close to the ample ray, near 0 the cusp.
    When rounding keeps missing the positive cone (small degrees), rho and
    the degree are raised a little until it does not."""
    n = len(gram)
    h2 = ck.norm(gram, ample)
    for attempt in itertools.count(1):
        z = [rng.randint(-5, 5) for _ in range(n)]
        zh = ck.pairing(gram, z, ample)
        w = [h2 * z[i] - zh * ample[i] for i in range(n)]
        w2 = ck.norm(gram, w)
        if w2 >= 0:
            continue
        t = degree / h2
        s = math.sqrt((1 - rho) * t * t * h2 / -w2)
        x = tuple(round(t * ample[i] + s * w[i]) for i in range(n))
        if ck.norm(gram, x) >= 0 and ck.pairing(gram, x, ample) > 0:
            return x
        if attempt % 10 == 0:
            rho, degree = min(1.0, 1.5 * rho), degree + 1


def log_grid(rng, lo: float, hi: float, count: int):
    """One seeded point near the middle of each of ``count`` equal log-width
    cells of [lo, hi]; the jitter stays narrow so that the cost of a cell
    hardly depends on the seed."""
    width = (math.log(hi) - math.log(lo)) / count
    return [math.exp(math.log(lo) + width * (i + 0.4 + 0.2 * rng.random())) for i in range(count)]


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, out_dir: Path):
        import k3cone

        self.k3 = k3cone
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")

    def round(self, index: int) -> list[Op]:
        ops = self._round(index)
        self.rng.shuffle(ops)
        return ops

    def verify_setup(self) -> None:
        """Check what set-up computed; runs after the set-up time is taken."""


class Chamber(Workload):
    """nef_walls on distinct (lattice, ample) pairs, every call cold."""

    name = "chamber"
    # stratum -> operations per round; ua1 and partial pairs get a fresh
    # seeded basis each, the others are images of fixed classes under
    # isometries of U + A1^k (a change of basis spreads their cost 4-fold)
    COUNTS = {"ua1": 61, "partial": 24, "ua2": 14, "rank5": 1}
    # enough U + A1^2 calls that the 90th percentile falls inside this stratum;
    # classes whose nef_walls costs 0.2-0.3 s, 88 images: pools for 6 rounds
    UA2_BASES = ((4, 3, 1, 1), (5, 3, 2, 1), (6, 3, 2, 1), (6, 3, 1, 1), (5, 4, 3, 1),
                 (7, 4, 3, 3), (9, 3, 4, 1))
    # the rank-5 fixture's ample class and two of about the same cost, 80 images
    RANK5_BASES = ((5, 3, 1, 1, 1), (7, 3, 2, 2, 1), (8, 3, 2, 2, 2))
    # diag Gram, ample, doubling ceiling: chambers that do not certify at the
    # ceiling, so nef_walls returns its honest partial answer
    PARTIAL = ((diag(2, -4, -6), (3, 1, 1), 1), (diag(2, -2, -6), (3, 1, 1), 1))

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = self.rng
        self.ua1 = ua1_amples()
        rank5_gram = fixture("rank5_supersingular.json")[0]
        self.pools = {
            "ua2": [(ua(2), h, None) for b in self.UA2_BASES for h in ua_images(b)],
            "rank5": [(rank5_gram, h, None) for b in self.RANK5_BASES for h in ua_images(b)],
        }
        for pool in self.pools.values():
            rng.shuffle(pool)
        self.used = set()

    def _fresh(self, choices):
        """A (gram, ample, ceiling) in a seeded basis not used before in this process."""
        while True:
            gram, ample, ceiling = self.rng.choice(choices)
            g, h = change_basis(self.rng, gram, ample)
            if (g, h) not in self.used:
                self.used.add((g, h))
                return g, h, ceiling

    def _round(self, index):
        ua1 = [(ua(1), h, None) for h in self.ua1]
        ops = [self._op("ua1", *self._fresh(ua1)) for _ in range(self.COUNTS["ua1"])]
        ops += [self._op("partial", *self._fresh(self.PARTIAL)) for _ in range(self.COUNTS["partial"])]
        for key in self.pools:
            count = self.COUNTS[key]
            chunk = self.pools[key][index * count:(index + 1) * count]
            if len(chunk) < count:
                raise Exhausted(key)
            ops += [self._op(key, *p) for p in chunk]
        return ops

    def _op(self, stratum, gram, ample, ceiling):
        k3 = self.k3

        def call():
            return k3.nef_walls(k3.Lattice(gram), ample, ceiling)

        def check(nef):
            ck.check_chamber(gram, ample, nef.walls, nef.rays, nef.witnesses,
                             nef.complete, nef.certification_bound, stratum != "partial")

        return Op(f"nef_walls {stratum}", call, check)


class Prepared:
    """A lattice with its chamber and, given generators, its group and domain.
    ``certified`` says whether the chamber is known to be finite polyhedral."""

    def __init__(self, k3, gram, ample, certified, gens=(), domain=True):
        self.gram, self.ample, self.certified = gram, ample, certified
        self.lat = k3.Lattice(gram)
        self.nef = k3.nef_walls(self.lat, ample)
        self.group = self.domain = None
        self.matrices = ()
        if gens:
            self.group = k3.build_group(self.lat, ample, gens, self.nef)
            self.matrices = self.group.matrices()
            if domain:
                self.domain = k3.sterk_domain(self.lat, ample, self.group, self.nef)

    @property
    def walls(self):
        """The wall list when the chamber is certified polyhedral, else None."""
        return self.nef.walls if self.nef.complete else None

    def verify(self):
        """Check the chamber and the generators with the independent checkers."""
        nef = self.nef
        ck.check_chamber(self.gram, self.ample, nef.walls, nef.rays, nef.witnesses,
                         nef.complete, nef.certification_bound, self.certified)
        for m in self.matrices:
            ck.require(ck.is_isometry(self.gram, m), f"generator {m} is not an isometry")


class Walks(Workload):
    """Walks, nef tests, separating searches and domain reductions."""

    name = "walks"
    KAPPA = 0.1  # norm / degree of the near-cusp classes

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        k3 = self.k3
        lp, lr = fixture("l_p.json"), fixture("l_r.json")
        r5 = fixture("rank5_supersingular.json")
        self.lat = {
            "L_P": Prepared(k3, lp[0], lp[1], True, lp[2]),
            "L_R": Prepared(k3, lr[0], lr[1], False, lr[2]),
            "UA1": Prepared(k3, ua(1), (4, 3, 1), True),
            "UA2": Prepared(k3, ua(2), (4, 3, 1, 1), True),
            "rank5": Prepared(k3, r5[0], r5[1], True),
        }

    def verify_setup(self):
        for p in self.lat.values():
            p.verify()

    def _nef_class(self, p):
        """A class in the closed chamber: a multiple of the ample class plus a ray."""
        k = self.rng.randint(1, 3)
        ray = self.rng.choice(p.nef.rays)
        return tuple(k * a + b for a, b in zip(p.ample, ray))

    def _round(self, index):
        rng, L = self.rng, self.lat
        ops = []
        # near-cusp walks on rank 2, degree log-uniform up to 1e5: cost grows
        # with the degree because the separating search runs degree by degree
        for name in ("L_P", "L_R"):
            p = L[name]
            for degree in log_grid(rng, 10, 1e5, 16):
                ops.append(self._walk(p, cusp_class(p.gram, p.ample, degree, self.KAPPA)))
        # moderate classes on rank 3-5: the separating bound depends on how
        # close the class is to the cusp (rho), so rho stays in a fixed band
        for name, count, rho_lo in (("UA1", 12, 0.05), ("UA2", 6, 0.3), ("rank5", 4, 0.45)):
            p = L[name]
            for degree in log_grid(rng, 30, 1e5, count):
                rho = rho_lo + (0.5 - rho_lo) * rng.random()
                ops.append(self._walk(p, class_with(rng, p.gram, p.ample, degree, rho)))
        for name, count, rho_lo in (("L_P", 4, 0.01), ("UA1", 8, 0.1), ("UA2", 4, 0.35), ("rank5", 2, 0.45)):
            p = L[name]
            for degree in log_grid(rng, 30, 1e4, count):
                rho = rho_lo + (0.5 - rho_lo) * rng.random()
                ops.append(self._separating(p, class_with(rng, p.gram, p.ample, degree, rho)))
        for name, count in (("L_P", 4), ("UA1", 8), ("UA2", 4), ("rank5", 2)):
            p = L[name]
            for _ in range(count):
                ops.append(self._nef_test(p, self._nef_class(p)))
            for degree in log_grid(rng, 30, 1e3, count // 2):
                ops.append(self._nef_test(p, class_with(rng, p.gram, p.ample, degree, 0.4 + 0.1 * rng.random())))
        for name in ("L_P", "L_R"):
            p = L[name]
            for degree in log_grid(rng, 10, 1e4, 10):
                ops.append(self._reduce(p, cusp_class(p.gram, p.ample, degree, self.KAPPA)))
        return ops

    def _walk(self, p, x):
        k3 = self.k3

        def call():
            return k3.walk_to_nef(p.lat, p.ample, x)

        def check(result):
            endpoint, word = result
            ck.check_walk(p.gram, p.ample, x, endpoint, word, p.walls)

        return Op(f"walk_to_nef rank {len(p.gram)}", call, check)

    def _separating(self, p, x):
        k3 = self.k3

        def call():
            return k3.separating_roots(p.lat, p.ample, x)

        def check(roots):
            ck.check_separating(p.gram, p.ample, x, roots, p.walls)

        return Op(f"separating_roots rank {len(p.gram)}", call, check)

    def _nef_test(self, p, x):
        k3 = self.k3

        def call():
            return k3.nef_test(p.lat, p.ample, x)

        def check(verdict):
            ck.check_nef_test(p.gram, p.ample, x, verdict, p.walls)

        return Op(f"nef_test rank {len(p.gram)}", call, check)

    def _reduce(self, p, x):
        k3 = self.k3

        def call():
            return k3.reduce_to_domain(p.lat, p.ample, p.group, p.domain, x)

        def check(result):
            point, reflections, word = result
            ck.check_reduction(p.gram, p.ample, p.matrices, p.domain.cone.normals,
                               x, point, reflections, word)

        return Op("reduce_to_domain rank 2", call, check)


class Domains(Workload):
    """Sterk domains, their certificates and orbit tables on rank 2."""

    name = "domains"
    SAMPLES = 50  # coverage samples per verify_fundamental call
    WORD4 = ("L_P", "diag(2,-6)")  # lattices where a word-length-4 check stays short
    # greedy descent fault: on diag(2,-6) with H = (4, 1) the sampled coverage
    # check fails at sampling seed 0; fixed input, one operation per round
    FAULT_AMPLE = (4, 1)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        k3 = self.k3
        self.tasks = []
        for name, (gram, gens, amples, certified) in rank2_lattices().items():
            for ample in amples:
                self.tasks.append((name, Prepared(k3, gram, ample, certified, gens, domain=False)))
        self.fault = Prepared(k3, diag(2, -6), self.FAULT_AMPLE, False, (PELL3, FLIP))

    def verify_setup(self):
        for _, p in self.tasks + [(None, self.fault)]:
            p.verify()

    def round(self, index):
        # every pair once, in seeded order; the operations of one pair keep
        # their order, because the later ones use the domain the first built
        tasks = list(self.tasks)
        self.rng.shuffle(tasks)
        ops = [op for name, p in tasks for op in self._task(name, p)]
        ops.insert(self.rng.randrange(len(ops) + 1), self._fault())
        return ops

    def _fault(self):
        k3, p = self.k3, self.fault

        def call():
            return k3.verify_fundamental(p.lat, p.ample, p.group, p.domain, p.nef,
                                         samples=self.SAMPLES, word_length=3, seed=0)

        def check(cert):
            ck.require(cert.ok, "verify_fundamental failed")

        return KnownFault("verify_fundamental descent fault", call, check, lambda cert: cert.ok)

    def _task(self, name, p):
        """Operations on one pair; later ones use the domain the first one built."""
        k3, rng = self.k3, self.rng
        state = {}
        group, matrices = p.group, p.matrices
        h2 = ck.norm(p.gram, p.ample)

        def domain():
            state["domain"] = k3.sterk_domain(p.lat, p.ample, group, p.nef)
            return state["domain"]

        def check_domain(dom):
            cuts = [(c.normal, c.orbit_point, c.word) for c in dom.cuts]
            ck.check_domain(p.gram, p.ample, matrices, dom.cone.normals, dom.cone.rays, cuts)
            ck.require(dom.saturated, "the domain is not descent-stable")

        def verify(length):
            def call():
                return k3.verify_fundamental(p.lat, p.ample, group, state["domain"], p.nef,
                                             samples=self.SAMPLES, word_length=length)

            def check(cert):
                ck.require(cert.ok, f"verify_fundamental failed at word length {length}")

            return Op(f"verify_fundamental word {length}", call, check)

        def table(kind, genus, bound):
            def call():
                dom = state["domain"]
                if kind == "nodal":
                    return k3.nodal_orbits(p.lat, p.ample, group, p.nef, dom)
                if kind == "elliptic":
                    return k3.elliptic_orbits(p.lat, p.ample, group, dom, bound)
                return k3.genus_orbits(p.lat, p.ample, group, p.nef, dom, genus, bound)

            def check(table):
                entries = [(e.representative, e.members) for e in table.entries]
                value = -2 if kind == "nodal" else (0 if kind == "elliptic" else 2 * genus - 2)
                ck.check_orbit_table(p.gram, p.ample, matrices, p.nef.walls, kind, value,
                                     bound, entries, state["domain"].cone.normals)
                if name == "L_P" and kind == "nodal":
                    ck.require([sorted(m) for _, m in entries] == [[(0, -1), (2, 3)]],
                               "the L_P nodal table is not the orbit {(0,-1), (2,3)}")

            return Op(f"orbits {kind}", call, check)

        bound = 4 * h2 + rng.randrange(2 * h2)
        ops = [Op("sterk_domain", domain, check_domain), verify(3)]
        if name in self.WORD4:
            ops.append(verify(4))
        ops += [table("nodal", None, None), table("elliptic", None, bound),
                table("genus", 2, bound), table("genus", 3, bound)]
        return ops


# ---------------------------------------------------------------- cli

DEADLINE_S = 3.0  # per command; every command but the known fault ends well inside it
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"


class CliOp(Op):
    """One ``python -m k3cone.cli`` process, timed by its own rusage."""

    trace_file: Path | None = None  # set while a traced round runs

    def __init__(self, label, problem: Path, args, check, env=None, failed_expected=False):
        self.label, self.problem, self.args, self.check = label, problem, list(args), check
        self.extra_env = env or {}
        self.failed_expected = failed_expected
        self.rss_kb = 0

    def execute(self):
        out_dir = self.problem.parent.parent / "io"
        out_dir.mkdir(parents=True, exist_ok=True)
        stdout, stderr = out_dir / "stdout", out_dir / "stderr"
        argv = [sys.executable]
        if CliOp.trace_file is not None:
            argv += [str(TRACE_CHILD), str(CliOp.trace_file)]
        else:
            argv += ["-m", "k3cone.cli"]
        argv += self.args[:1] + [str(self.problem)] + self.args[1:]
        env = {k: v for k, v in os.environ.items() if k != "K3CONE_CEILING"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env.update(self.extra_env)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        wall0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - wall0
        code = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        result = (code, stdout.read_text(), stderr.read_text())
        return result, usage.ru_utime + usage.ru_stime, wall, code >= 0


class Cli(Workload):
    """k3cone commands as processes, one at a time, on fixture and generated files."""

    name = "cli"
    in_process = False

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        import jsonschema

        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.dir = out_dir / "cli" / "problems"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        rng = self.rng
        for name in ("l_u", "l_p", "l_r", "rank5_supersingular"):
            self._write(name, json.loads((PROBLEMS / f"{name}.json").read_text()), name != "l_r")
        # L_R appears through its fixture only: on some of its other ample
        # classes greedy descent can end outside the domain (see README)
        lattices = rank2_lattices()
        self.rank2 = []
        for slug, name in (("lp", "L_P"), ("d6", "diag(2,-6)")):
            gram, gens, amples, certified = lattices[name]
            for i in range(4):
                self.rank2.append(self._write(f"{slug}_{i}", {
                    "rank": 2, "gram": gram, "ample": rng.choice(amples), "generators": gens,
                    "bounds": {"samples": Domains.SAMPLES}}, certified))
        eye3 = diag(1, 1, 1)
        self.with_identity = [
            self._write(f"ua1_{i}", {"rank": 3, "gram": ua(1), "ample": h, "generators": [eye3]}, True)
            for i, h in enumerate(rng.sample(ua1_amples(), 12))
        ]
        swap = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        symmetric = [h for b in ((4, 3, 1, 1), (6, 3, 2, 2)) for h in ua_images(b) if h[2] == h[3]]
        self.with_swap = [
            self._write(f"ua2_{i}", {"rank": 4, "gram": ua(2), "ample": h, "generators": [swap]}, True)
            for i, h in enumerate(rng.sample(symmetric, 4))
        ]
        self.partial = []
        for i in range(6):
            g, h = change_basis(rng, diag(2, -4, -6), (3, 1, 1))
            self.partial.append(self._write(f"partial_{i}", {"rank": 3, "gram": g, "ample": h}, False))
        # parse-time ceiling fault: parse_problem -> build_group runs nef_walls
        # at the default ceiling, ignoring K3CONE_CEILING; fixed input
        self.fault = self._write("fault", {"rank": 3, "gram": diag(2, -4, -6), "ample": [3, 1, 1],
                                           "generators": [eye3]}, False)
        self._warm_up()

    def _write(self, name, data, certified: bool) -> Path:
        """Write a problem file; ``certified`` says whether its chamber
        certifies (at the ceiling its commands run with)."""
        path = self.dir / f"{name}.json"
        text = json.dumps(data, indent=2, default=list) + "\n"
        path.write_text(text)
        gens = tuple(tuple(tuple(r) for r in m) for m in data.get("generators", []))
        self.files[path] = (text.encode(), tuple(map(tuple, data["gram"])), tuple(data["ample"]),
                            gens, certified)
        return path

    def _warm_up(self):
        """One untimed command, so imports and bytecode are ready before timing."""
        op = CliOp("warm-up", self.dir / "l_u.json", ["validate"], None)
        (code, _, err), *_ = op.execute()
        if code != 0:
            raise RuntimeError(f"the k3cone command does not start: {err.strip()}")

    # -------------------------------------------------------- rounds

    def _round(self, index):
        rng = self.rng
        d = self.dir
        lu, lp, lr, r5 = (d / f"{n}.json" for n in ("l_u", "l_p", "l_r", "rank5_supersingular"))
        cls = lambda path: f"--class={','.join(map(str, self._class(path)))}"  # noqa: E731
        ops = [
            self._op(lu, "validate"), self._op(lu, "roots"), self._op(lu, "walls"),
            self._op(lu, "isotropic", "--bound", str(rng.randint(4, 8))),
            self._op(r5, "validate"), self._op(r5, "filter-k"), self._op(r5, "roots", "--bound", "6"),
            self._op(lr, "filter-k"),
        ]
        for path in (lp, lr):
            ops += [
                self._op(path, "validate"), self._op(path, "walls"),
                self._op(path, "roots", "--bound", str(rng.randint(10, 40))),
                self._op(path, "walk", cls(path)), self._op(path, "nef-test", cls(path)),
                self._op(path, "sterk"), self._op(path, "reduce", cls(path)),
                self._op(path, "orbits", "--kind", "nodal"),
                self._op(path, "orbits", "--kind", "genus", "--genus", "2"),
            ]
        ops.append(self._op(lp, "orbits", "--kind", "elliptic"))
        for path in rng.sample(self.rank2, 6):
            ops += [
                self._op(path, "validate"), self._op(path, "walls"),
                self._op(path, "sterk"), self._op(path, "orbits", "--kind", "nodal"),
                self._op(path, "orbits", "--kind", "genus", "--genus", "2"),
                self._op(path, "reduce", cls(path)), self._op(path, "walk", cls(path)),
            ]
        for path in rng.sample(self.with_identity, 10):
            ops += [self._op(path, "validate"), self._op(path, "walls")]
        ops += [self._op(path, "validate") for path in self.with_swap]
        ops += [self._op(path, "walls", env={"K3CONE_CEILING": "1"}) for path in self.partial]
        ops.append(self._op(self.fault, "validate", env={"K3CONE_CEILING": "1"},
                            failed_expected=True))
        return ops

    def _class(self, path):
        _, gram, ample, _, _ = self.files[path]
        return cusp_class(gram, ample, 10 ** self.rng.uniform(1, 3), Walks.KAPPA)

    def _op(self, path, command, *args, env=None, failed_expected=False):
        raw, gram, ample, gens, certified = self.files[path]
        validator = self.validator
        # only walls reports a certificate that an honest answer can leave false
        expected_code = 2 if command == "walls" and not certified else 0

        def check(result):
            code, out, err = result
            ck.require(code in (0, 2), f"{command} {path.name} exited {code}: {err.strip()[:300]}")
            report = ck.check_report(validator, raw, out, code, expected_code)
            self._check_results(command, args, gram, ample, gens, certified, report)

        stem = path.stem
        label = f"{command} {stem.rsplit('_', 1)[0] if stem[-1].isdigit() else stem}"
        return CliOp(label, path, [command, *args], check, env, failed_expected)

    def _check_results(self, command, args, gram, ample, gens, certified, report):
        res = {k: ck.decode(v) for k, v in report["results"].items()}
        if command == "walls":
            witnesses = [(ck.decode(w["wall"]), ck.decode(w["point"]))
                         for w in report["results"]["facet_witnesses"]]
            complete = report["certificates"]["complete"]
            ck.check_chamber(gram, ample, res["walls"], res["rays"], witnesses, complete,
                             res["search_bound"], certified)
        elif command == "walk":
            ck.check_walk(gram, ample, res["start"], res["endpoint"], res["reflections"])
        elif command == "nef-test":
            ck.check_separating(gram, ample, res["class"], res["separating_roots"])
            ck.require(res["nef"] == (not res["separating_roots"]), "nef disagrees with its roots")
        elif command == "reduce":
            ck.check_reduction(gram, ample, _cli_generators(gram, gens), (), res["start"],
                               res["endpoint"], res["reflections"], res["word"])
        elif command == "roots" and len(gram) <= 3:
            found = ck.classes_in_box(gram, ample, -2, 1, res["bound"])
            ck.require(list(res["roots"]) == found, "roots differ from the box scan")
        elif command == "validate":
            ck.require(res["ample_norm"] == ck.norm(gram, ample), "wrong ample norm")
            ck.require(res["rank"] == len(gram), "wrong rank")
        elif command == "isotropic" and res["found"] is not None:
            ck.require(ck.norm(gram, res["found"]) == 0, "the isotropic vector is not isotropic")
        elif command == "orbits" and args[1] == "nodal" and gram == fixture("l_p.json")[0]:
            members = [sorted(ck.decode(o["members"])) for o in report["results"]["orbits"]]
            ck.require(members == [[(0, -1), (2, 3)]], "the L_P nodal table is not {(0,-1), (2,3)}")


def _cli_generators(gram, gens):
    """The generator list a command works with: the inputs closed under
    inverse, without the identity, sorted (as ``build_group`` documents)."""
    eye = diag(*([1] * len(gram)))
    out = set()
    for m in gens:
        m = tuple(map(tuple, m))
        if m != eye:
            out |= {m, _inverse_unimodular(m)} - {eye}
    return sorted(out)


def _inverse_unimodular(m):
    return tuple(tuple(int(x) for x in row) for row in ck.inverse(m))


WORKLOADS = {w.name: w for w in (Chamber, Walks, Domains, Cli)}
