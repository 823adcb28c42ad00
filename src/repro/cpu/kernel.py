"""Run-compiled exact-path kernels: specialise a TraceRun body once.

The exact simulation path costs a flat pure-Python constant per dynamic
uop: the codegen generator re-lowers every iteration (allocating fresh
:class:`~repro.cpu.isa.Uop` objects through nested generators and
pc-site lookups) and :meth:`CoreExecution.process` re-dispatches every
uop through the class ladder and a dozen attribute chases.  For the
steady-state workloads this repository simulates, both are pure waste:
a :class:`~repro.codegen.base.TraceRun` guarantees that every iteration
of a run lowers to the *same static uops* with addresses advancing
uniformly by the declared regions.

This module exploits that guarantee the ZSim way — keep O(1) work per
uop, make the constant small:

* the first time a run-body shape is seen, three consecutive iterations
  are materialised, validated field by field, and **compiled to Python
  source**: the body becomes one generated function with every per-uop
  dispatch decided at compile time — front-end depths, ROB size,
  functional-unit pools/latencies/occupancies, pcs, branch directions
  and mispredict penalties are literals; the cache hierarchy, branch
  predictor, MOB/issue/commit resources and the PIM backend are baked
  in as bound-method default arguments; addresses arrive as per-run
  base tuples plus literal per-iteration deltas; rotating register ids
  are recovered from the iteration index in a short prelude;
* later runs with the same key reuse the generated function outright:
  their address bases and register-allocation phase are *synthesised*
  from the run's declared ``regions``/``reg_base`` without
  materialising a single iteration — which makes a pass fragmented
  into one-iteration runs by data-dependent skip flags as cheap as an
  unbroken stream;
* a key whose runs are all too short to capture three consecutive
  iterations compiles *across* its runs: once it has promised
  ``MIN_COMPILE_BENEFIT`` iterations, iteration 0 of three of its runs
  (two kept from earlier runs, from its second run on) is normalised
  by each run's regions and ``reg_base``, checked field by field, and
  stands in for the three captured iterations
  (:func:`cross_run_samples`);
* shape-varying literals (pcs, address deltas, sizes, unit latencies)
  are interned as bound parameters rather than baked into the source,
  so same-structure shapes share one compiled code object — the
  ``compile`` cost is paid once per body *structure*, not once per
  run key (see ``code_cache_stats``);
* fractional-stride bodies (a region advancing ``p/q`` bytes per
  iteration, e.g. the x86 16-byte scan's half-byte-per-op mask bitmap)
  compile as *super-iterations*: ``q`` consecutive iterations become
  one generated-loop step whose address deltas are integral;
* anything else the compiler cannot prove affine (shape drift between
  consecutive iterations, unknown uop classes) falls back to the
  uncompiled path for the entire run.

What compiles, and when: every run is keyed (an Aggregate's prologue
and epilogue are one-iteration runs of their own), and a key compiles
the first time it is met on a run of at least ``MIN_KERNEL_ITERATIONS``
(times ``q``) iterations once its runs so far, this one included, add
up to ``MIN_COMPILE_BENEFIT`` plus the capture; a ``q == 1`` key whose
runs stay shorter compiles across runs as above.  Fractional-stride
keys (``q > 1``: the x86 and HMC 16 B scans) only compile within one
run.  A key that never reaches ``MIN_COMPILE_BENEFIT`` iterations
(a pass's final partial iteration, a prologue) stays uncompiled.

Compilation is validated, not assumed: the three captured iterations
are simulated through the ordinary :meth:`process` path (so capture is
free), and the template is accepted only if every structural field
matches and both consecutive per-uop address/register deltas agree.
``REPRO_KERNEL=0`` disables compilation entirely; kernel and uncompiled
paths are bit-identical by construction, and CI cross-checks them.
"""

from __future__ import annotations

import copy
import math
from typing import List, Optional

from ..common.settings import setting
from .isa import Uop, UopClass

#: dense kernel opcodes
OP_ALU = 0
OP_LOAD = 1
OP_STORE = 2
OP_BRANCH = 3
OP_PIM = 4
OP_NOP = 5

#: UopClass -> kernel opcode (every ALU flavour shares OP_ALU; the
#: pre-bound pool/latency carries the difference)
_CLASS_OPS = {
    UopClass.INT_ALU: OP_ALU,
    UopClass.INT_MUL: OP_ALU,
    UopClass.INT_DIV: OP_ALU,
    UopClass.FP_ALU: OP_ALU,
    UopClass.FP_MUL: OP_ALU,
    UopClass.FP_DIV: OP_ALU,
    UopClass.LOAD: OP_LOAD,
    UopClass.STORE: OP_STORE,
    UopClass.BRANCH: OP_BRANCH,
    UopClass.PIM: OP_PIM,
    UopClass.NOP: OP_NOP,
}

#: smallest run worth compiling from scratch: capture burns three
#: iterations, so a run must have at least a few more to pay off
MIN_KERNEL_ITERATIONS = 6

#: iterations captured (and simulated uncompiled) before compilation;
#: two consecutive delta vectors must agree, so three samples
CAPTURE_ITERATIONS = 3

#: iterations a shape must promise before paying code generation:
#: either remaining in the current run or accumulated across earlier
#: short runs of the same key.  Boundary shapes (a pass's final
#: partial iteration) appear a handful of times ever; compiling them
#: costs more than they will ever repay.
MIN_COMPILE_BENEFIT = 24

#: fractional-stride runs (a region advancing p/q bytes per iteration,
#: e.g. the x86 16-byte scan whose mask bitmap grows half a byte per
#: op) compile as *super-iterations* of q consecutive iterations — the
#: per-super address deltas are integral, so the affine model applies
#: unchanged.  q is the lcm of the region-stride denominators; capture
#: burns ``CAPTURE_ITERATIONS * q`` iterations, so hopelessly long
#: periods stay uncompiled.
SUPER_MAX_PERIOD = 8


#: compiled code objects keyed by generated source: shapes whose bodies
#: have the same *structure* — identical uop sequence, branch
#: directions and register roles, regardless of pcs, address deltas,
#: sizes or unit latencies (those are interned as ``_k*`` parameters,
#: see ``_emit``) — share one code object, and experiment sweeps
#: re-simulating the same workload skip the expensive ``compile`` step
#: and only re-``exec`` against their own bound resources
_CODE_CACHE: dict = {}

#: code-object economics: ``compiled`` counts distinct generated
#: sources that paid ``compile()``; ``shared`` counts shapes that found
#: their source already cached (the literal parameterisation payoff)
_CODE_STATS = {"compiled": 0, "shared": 0}

#: profiler attribution: each distinct code object compiles under a
#: numbered pseudo-filename (``<runkernel#N>``) and this registry maps
#: that filename to every run key exec'd against it — shared code
#: objects would otherwise merge all shapes into one opaque profile row
_CODE_KEYS: dict = {}


def code_cache_stats() -> dict:
    """Snapshot of the shared-code-object counters (for tools/tests)."""
    return dict(_CODE_STATS)


def kernel_code_keys() -> dict:
    """``{pseudo-filename: [run keys]}`` for profile attribution."""
    return {filename: list(keys) for filename, keys in _CODE_KEYS.items()}


def _encode_reg(ids, j0: int, rpi: int, reg_start: int, window: int,
                fixed_regs) -> Optional[int]:
    """Encode a register observed as ``ids`` at iterations j0, j0+1, j0+2.

    Loop-invariant ids encode as ``-(id + 1)``; ids rotating with the
    per-iteration allocation phase encode as their window offset.
    Returns None when the observations fit neither model.
    """
    a, b, c = ids
    if a == b and b == c:
        return -(a + 1)
    if a in fixed_regs:
        return None  # a declared-invariant id must not move
    if rpi:
        off = (a - reg_start - j0 * rpi) % window
        if (b == reg_start + (off + (j0 + 1) * rpi) % window
                and c == reg_start + (off + (j0 + 2) * rpi) % window):
            return off
    return None


def _stride_period(run) -> int:
    """lcm of the run's region-stride denominators (1 = plain affine)."""
    q = 1
    for region in (run.regions or ()):
        q = math.lcm(q, region.stride.denominator)
    return q


def _same_pim(a, b) -> bool:
    """Structural equality of two PIM payloads, addresses excluded."""
    return (
        a.op is b.op and a.size == b.size and a.dst_reg == b.dst_reg
        and a.src_regs == b.src_regs and a.func is b.func
        and a.imm_lo == b.imm_lo and a.imm_hi == b.imm_hi
        and a.lane_bytes == b.lane_bytes and a.pred_reg == b.pred_reg
        and a.pred_expect == b.pred_expect
        and a.returns_value == b.returns_value and a.compound == b.compound
        and a.tuple_stride == b.tuple_stride
    )


class RunShape:
    """One validated, code-generated body shape (kept per run key).

    ``fn`` is the generated function; it takes ``(ex, dj, sh, AB, PB)``
    — the execution, the iteration offset from the instance's base, the
    combined register-window shift, and the instance's address/PIM base
    tuples — so every run instance of the shape shares one function.
    ``steps``/``strides``/``reg_base``/``region_map`` retain the
    structural record used to anchor new instances.

    ``q`` is the super-iteration period: a fractional-stride shape
    packs ``q`` consecutive run iterations into one generated-loop
    step (``j0``, ``rpi`` and the address deltas are then all in super
    units — ``rpi`` stores ``regs_per_iter * q``).
    """

    __slots__ = ("steps", "j0", "rpi", "reg_start", "reg_window",
                 "fn", "n_steps", "q",
                 "region_map", "strides", "reg_base", "synth_ok")

    def __init__(self, steps: List[tuple], j0: int, rpi: int,
                 reg_start: int, reg_window: int, q: int = 1) -> None:
        self.steps = steps
        self.j0 = j0  # (super-)iteration the address bases were captured at
        self.rpi = rpi
        self.reg_start = reg_start
        self.reg_window = reg_window
        self.fn = None
        self.n_steps = len(steps)
        self.q = q
        self.region_map: Optional[List[tuple]] = None
        self.strides: tuple = ()
        self.reg_base: Optional[int] = None
        self.synth_ok = False


class RunInstance:
    """A shape anchored to one concrete run: bases + register phase."""

    __slots__ = ("shape", "j0", "abases", "pbases", "rebase", "sh0")

    def __init__(self, shape: RunShape, j0: int, abases: tuple,
                 pbases: tuple, rebase: int) -> None:
        self.shape = shape
        self.j0 = j0
        self.abases = abases
        self.pbases = pbases
        self.rebase = rebase
        #: register shift at iteration ``j`` is ``(sh0 + (j - j0) * rpi)``
        #: modulo the window — the generated loop computes it per step
        self.sh0 = rebase + j0 * shape.rpi


# ---------------------------------------------------------------------------
# shape compilation (three validated consecutive iterations -> steps)
# ---------------------------------------------------------------------------


def compile_shape(execution, run, samples, j0: int,
                  q: int = 1) -> Optional[RunShape]:
    """Build a :class:`RunShape` from three consecutive (super-)iterations.

    With ``q > 1`` each sample is the concatenation of ``q`` run
    iterations starting at an aligned boundary, and ``j0`` counts in
    super units; the affine validation below is otherwise identical.
    Returns None whenever any per-uop field fails the affine model —
    the caller then keeps the uncompiled path for this run.
    """
    a_list, b_list, c_list = samples
    if len(a_list) != len(b_list) or len(b_list) != len(c_list):
        return None
    if not a_list:
        return None
    from ..codegen.base import RegAllocator

    reg_start = RegAllocator.DEFAULT_START
    window = RegAllocator.DEFAULT_WINDOW
    rpi = run.regs_per_iter * q
    fixed = frozenset(run.fixed_regs)
    units_table = execution.units._table
    steps: List[tuple] = []
    for ua, ub, uc in zip(a_list, b_list, c_list):
        cls = ua.cls
        if cls is not ub.cls or cls is not uc.cls:
            return None
        if ua.pc != ub.pc or ua.pc != uc.pc:
            return None
        if ua.taken != ub.taken or ua.taken != uc.taken:
            return None
        if ua.size != ub.size or ua.size != uc.size:
            return None
        delta = ub.address - ua.address
        if uc.address - ub.address != delta:
            return None
        op = _CLASS_OPS.get(cls)
        if op is None:
            return None
        if len(ua.srcs) != len(ub.srcs) or len(ua.srcs) != len(uc.srcs):
            return None
        srcs = []
        for sa, sb, sc in zip(ua.srcs, ub.srcs, uc.srcs):
            encoded = _encode_reg((sa, sb, sc), j0, rpi, reg_start, window,
                                  fixed)
            if encoded is None:
                return None
            srcs.append(encoded)
        if ua.dst is None:
            if ub.dst is not None or uc.dst is not None:
                return None
            dst = None
        else:
            if ub.dst is None or uc.dst is None:
                return None
            dst = _encode_reg((ua.dst, ub.dst, uc.dst), j0, rpi, reg_start,
                              window, fixed)
            if dst is None:
                return None
        aux = None
        if op == OP_PIM:
            pa, pb, pc_ = ua.pim, ub.pim, uc.pim
            if pa is None or pb is None or pc_ is None:
                return None
            if not (_same_pim(pa, pb) and _same_pim(pa, pc_)):
                return None
            pim_delta = pb.address - pa.address
            if pc_.address - pb.address != pim_delta:
                return None
            aux = (pa, pa.address, pim_delta, pa.speculative)
        elif op != OP_NOP:
            entry = units_table[cls.index]
            if entry is None:
                return None
            aux = entry  # (pool, latency, occupancy)
        steps.append((op, ua.pc, ua.address, delta, ua.size,
                      tuple(srcs), dst, bool(ua.taken), aux))
    shape = RunShape(steps, j0, rpi, reg_start, window, q)
    # An emitter bug must fail loudly here: a silent fallback would keep
    # results bit-identical while quietly losing the compiled path.
    _emit(shape, execution)
    _anchor_shape(shape, run)
    if len(_CODE_KEYS) < 512:
        keys = _CODE_KEYS.setdefault(shape.fn.__code__.co_filename, [])
        if run.key not in keys:
            keys.append(run.key)
    return shape


# ---------------------------------------------------------------------------
# region anchoring (shape + run.regions/reg_base -> instance, no capture)
# ---------------------------------------------------------------------------


def _anchor_address(address: int, delta: int, regions,
                    q: int = 1) -> Optional[tuple]:
    """(region index, offset from the region's start) for one address.

    ``address`` is the step's address at the run's first iteration.  A
    step advancing by ``delta`` per super-iteration must anchor inside
    a region whose stride over ``q`` iterations is exactly ``delta``;
    a static step (``delta == 0``) outside every region anchors as
    ``(-1, address)``.  Returns None when no consistent anchor exists.
    """
    for index, region in enumerate(regions):
        if region.lo <= address < region.hi:
            if region.stride * q == delta:
                return index, address - region.lo
            return None
    if delta == 0:
        return -1, address
    return None


def _anchor_shape(shape: RunShape, run) -> None:
    """Record how ``shape`` anchors to ``run``'s regions/phase."""
    shape.strides = tuple(
        (region.stride.numerator, region.stride.denominator)
        for region in run.regions
    )
    shape.reg_base = run.reg_base
    if run.reg_base is None:
        return
    j0 = shape.j0
    region_map: List[tuple] = []
    for step in shape.steps:
        op, _pc, a0, delta, _size, _srcs, _dst, _taken, aux = step
        anchor = _anchor_address(a0 - j0 * delta, delta, run.regions,
                                 shape.q)
        if anchor is None:
            return
        if op == OP_PIM:
            pim_anchor = _anchor_address(aux[1] - j0 * aux[2], aux[2],
                                         run.regions, shape.q)
            if pim_anchor is None:
                return
        else:
            pim_anchor = None
        region_map.append((anchor, pim_anchor))
    shape.region_map = region_map
    shape.synth_ok = True


def _region_offset(address: int, regions) -> tuple:
    """(region index, offset from its start), or ``(-1, address)``."""
    for index, region in enumerate(regions):
        if region.lo <= address < region.hi:
            return index, address - region.lo
    return -1, address


def cross_run_samples(run, sample: List[Uop],
                      earlier: List[tuple]) -> Optional[List[List[Uop]]]:
    """Three consecutive iterations of ``run`` from iteration 0 of three runs.

    ``sample`` is iteration 0 of ``run``; ``earlier`` holds iteration 0
    of two earlier runs of its key as ``(uops, regions, reg_base)``.
    Each observation is normalised by its own run's declared regions
    and ``reg_base`` — the anchoring :func:`synthesize_instance` trusts:
    an address becomes its (region, offset), and a register id its
    offset from the run's allocation phase unless all three carry the
    same id (a loop-invariant register).  The three must agree field by
    field.  ``sample`` then advances by the region strides and the
    allocation phase into iterations 1 and 2, which :func:`compile_shape`
    validates like captured ones.  Returns None when they disagree, or
    when the runs' phases coincide and an invariant register could not
    be told from a rotating one.  Integral strides only (``q == 1``).
    """
    from ..codegen.base import RegAllocator

    start = RegAllocator.DEFAULT_START
    window = RegAllocator.DEFAULT_WINDOW
    rpi = run.regs_per_iter
    frames = [(sample, run.regions, run.reg_base)] + list(earlier)
    strides = [region.stride for region in run.regions]
    for uops, regions, reg_base in frames:
        if (reg_base is None or len(uops) != len(sample)
                or [region.stride for region in regions] != strides):
            return None
    bases = [reg_base for __, __, reg_base in frames]
    if rpi and len({base % window for base in bases}) < len(bases):
        return None

    def register(ids) -> Optional[bool]:
        """True: rotating, False: invariant, None: neither."""
        if ids.count(ids[0]) == len(ids):
            return False
        offsets = {(reg - start - base) % window for reg, base in zip(ids, bases)}
        return True if rpi and len(offsets) == 1 else None

    roles = []  # per uop: (src roles, dst role, address anchor, pim anchor)
    for observed in zip(*(uops for uops, __, __ in frames)):
        first = observed[0]
        for uop in observed[1:]:
            if (uop.cls is not first.cls or uop.pc != first.pc
                    or bool(uop.taken) != bool(first.taken)
                    or uop.size != first.size
                    or len(uop.srcs) != len(first.srcs)
                    or (uop.dst is None) != (first.dst is None)
                    or (uop.pim is None) != (first.pim is None)):
                return None
            if first.pim is not None and not _same_pim(first.pim, uop.pim):
                return None
        srcs = [register([uop.srcs[s] for uop in observed])
                for s in range(len(first.srcs))]
        dst = (False if first.dst is None
               else register([uop.dst for uop in observed]))
        if None in srcs or dst is None:
            return None
        anchors = {_region_offset(uop.address, regions)
                   for uop, (__, regions, __) in zip(observed, frames)}
        pim_anchors = {None if uop.pim is None
                       else _region_offset(uop.pim.address, regions)
                       for uop, (__, regions, __) in zip(observed, frames)}
        if len(anchors) != 1 or len(pim_anchors) != 1:
            return None
        roles.append((srcs, dst, anchors.pop()[0], pim_anchors.pop()))

    def advanced(k: int) -> List[Uop]:
        """``sample`` moved ``k`` iterations along its streams and phase."""
        shift = k * rpi

        def reg(reg_id: int, rotating: bool) -> int:
            if not rotating:
                return reg_id
            return start + (reg_id - start + shift) % window

        out = []
        for uop, (srcs, dst, index, pim_anchor) in zip(sample, roles):
            moved = copy.copy(uop)
            moved.srcs = tuple(reg(r, rot) for r, rot in zip(uop.srcs, srcs))
            if uop.dst is not None:
                moved.dst = reg(uop.dst, dst)
            if index >= 0:
                moved.address = uop.address + k * int(strides[index])
            if pim_anchor is not None and pim_anchor[0] >= 0:
                moved.pim = copy.copy(uop.pim)
                moved.pim.address = (uop.pim.address
                                     + k * int(strides[pim_anchor[0]]))
            out.append(moved)
        return out

    return [sample, advanced(1), advanced(2)]


def _own_instance(shape: RunShape) -> RunInstance:
    """The instance anchored to the run the shape was compiled from."""
    abases = tuple(step[2] for step in shape.steps)
    pbases = tuple(step[8][1] for step in shape.steps if step[0] == OP_PIM)
    return RunInstance(shape, shape.j0, abases, pbases, 0)


def synthesize_instance(shape: RunShape, run) -> Optional[RunInstance]:
    """Anchor a validated shape onto a new run without materialising it.

    Two runs sharing a key lower to the same static body; the only
    per-run quantities are the address-stream bases (``run.regions``)
    and the register-allocation phase (``run.reg_base``).  Both are
    declared on the run, so the generated function can be re-anchored
    outright — this is what makes single-iteration runs (a pass
    fragmented by data-dependent skip flags) as cheap as long ones,
    once their key has compiled (within one run, or across three runs
    by :func:`cross_run_samples`, which trusts the same anchoring).
    Fractional-stride shapes (``q > 1``) and shapes with a moving
    address outside every declared region (the engine aggregates,
    which declare none) are never synthesised: the runner re-anchors
    them from one observed iteration instead (:func:`rebase_instance`).
    """
    if not shape.synth_ok or run.reg_base is None:
        return None
    regions = run.regions
    if len(regions) != len(shape.strides):
        return None
    for region, (numerator, denominator) in zip(regions, shape.strides):
        stride = region.stride
        if stride.numerator != numerator or stride.denominator != denominator:
            return None
    rebase = (run.reg_base - shape.reg_base) % shape.reg_window
    abases: List[int] = []
    pbases: List[int] = []
    for step, (anchor, pim_anchor) in zip(shape.steps, shape.region_map):
        index, offset = anchor
        abases.append(offset if index < 0 else regions[index].lo + offset)
        if pim_anchor is not None:
            pindex, poffset = pim_anchor
            pbases.append(poffset if pindex < 0
                          else regions[pindex].lo + poffset)
    return RunInstance(shape, 0, tuple(abases), tuple(pbases), rebase)


def rebase_instance(shape: RunShape, run, sample, j: int) -> Optional[RunInstance]:
    """Re-anchor a shape onto a new run from one materialised iteration.

    The fallback when region anchoring was not possible (a step outside
    every declared region, or a hand-built run without ``reg_base``):
    every structural field of ``sample`` is checked against the shape —
    one iteration suffices because the register encoding predicts the
    exact ids any iteration must carry.
    """
    steps = shape.steps
    if len(sample) != len(steps):
        return None
    reg_start = shape.reg_start
    window = shape.reg_window
    rpi = shape.rpi
    if run.reg_base is not None and shape.reg_base is not None:
        rebase = (run.reg_base - shape.reg_base) % window
    else:
        rebase = 0
    shift = (rebase + j * rpi) % window
    abases: List[int] = []
    pbases: List[int] = []
    for uop, step in zip(sample, steps):
        op, pc, _a0, delta, size, srcs, dst, taken, aux = step
        if (_CLASS_OPS.get(uop.cls) != op or uop.pc != pc
                or bool(uop.taken) != taken or uop.size != size):
            return None
        if len(uop.srcs) != len(srcs):
            return None
        for observed, encoded in zip(uop.srcs, srcs):
            if encoded < 0:
                if observed != -encoded - 1:
                    return None
            elif observed != reg_start + (encoded + shift) % window:
                return None
        if dst is None:
            if uop.dst is not None:
                return None
        elif dst < 0:
            if uop.dst != -dst - 1:
                return None
        elif uop.dst != reg_start + (dst + shift) % window:
            return None
        abases.append(uop.address)
        if op == OP_PIM:
            inst = uop.pim
            if inst is None or not _same_pim(inst, aux[0]):
                return None
            pbases.append(inst.address)
    return RunInstance(shape, j, tuple(abases), tuple(pbases), rebase)


# ---------------------------------------------------------------------------
# the code generator
# ---------------------------------------------------------------------------


def _emit(shape: RunShape, execution) -> None:
    """Generate ``shape.fn``: the whole body as one specialised function.

    The emitted source is a literal transcription of
    :meth:`CoreExecution.process` for the shape's exact uop sequence —
    same resource operations, same order, same arguments — with every
    compile-time-known quantity folded in.  Bit-identity with the
    uncompiled path is the contract (CI cross-checks it).
    """
    core = execution.core
    fe = core.front_end_depth
    rob_len = core.rob_entries
    window = shape.reg_window
    start = shape.reg_start

    import heapq as _heapq
    from ..cache.cache import AccessType as _AccessType

    hierarchy = execution.hierarchy
    line_bytes = getattr(hierarchy, "line_bytes", 64)
    binds = {
        "_fs": execution._fetch_slots,
        "_bs": execution._branch_slots,
        "_qs": execution._issue_slots,
        "_cs": execution._commit_slots,
        "_mr": execution._mob_reads,
        "_mw": execution._mob_writes,
        "_hl": hierarchy.load,
        "_hs": hierarchy.store,
        "_hy": hierarchy,
        "_l1a": hierarchy.l1.access if hasattr(hierarchy, "l1") else None,
        "_AL": _AccessType.LOAD,
        "_AS": _AccessType.STORE,
        "_pu": execution.predictor.update,
        "_pd": execution.predictor,
        "_pht": execution.predictor._pht,
        "_btb": execution.predictor._btb,
        "_hpu": _heapq.heappush,
        "_hpo": _heapq.heappop,
    }
    predictor = execution.predictor
    inline_l1 = binds["_l1a"] is not None
    slotted = {
        "fs": execution._fetch_slots,
        "bs": execution._branch_slots,
        "qs": execution._issue_slots,
        "cs": execution._commit_slots,
    }
    if execution._pim_window is not None:
        binds["_pw"] = execution._pim_window
        binds["_sub"] = execution.pim_backend.submit_inst
    pools: dict = {}
    lits: dict = {}

    def K(value: int) -> str:
        """Intern a shape-varying literal as a bound ``_k*`` parameter.

        Keeping pcs, address deltas, sizes, masks and unit latencies
        out of the source makes same-structure shapes emit
        byte-identical code: ``compile`` runs once per *structure* and
        every sibling shape re-``exec``s the cached code object
        against its own literal bindings (``_CODE_CACHE``).
        """
        name = lits.get(value)
        if name is None:
            name = f"_k{len(lits)}"
            lits[value] = name
            binds[name] = value
        return name

    def pool_names(pool) -> tuple:
        if id(pool) not in pools:
            k = len(pools)
            binds[f"_pl{k}"] = pool
            binds[f"_un{k}"] = pool.units
            pools[id(pool)] = (f"_pl{k}", f"_un{k}", len(pool.units))
        return pools[id(pool)]

    offsets = set()
    for step in shape.steps:
        for encoded in step[5]:
            if encoded >= 0:
                offsets.add(encoded)
        if step[6] is not None and step[6] >= 0:
            offsets.add(step[6])
    # Rotating-register locals are named positionally (R0, R1, ...) with
    # the actual window offsets interned: the names encode only *which*
    # register role a step touches, keeping the source structural.
    reg_names = {off: f"R{i}" for i, off in enumerate(sorted(offsets))}

    def reg_expr(encoded: int) -> str:
        if encoded < 0:
            return K(-encoded - 1)  # loop-invariant id: shape-varying
        return reg_names[encoded]

    L: List[str] = []
    body_mode = [False]

    def emit(line: str) -> None:
        if body_mode[0]:
            L.append("    " + line)
        else:
            L.append(line)

    emit("def _kernel(ex, djlo, djhi, sh0, AB, PB):")  # signature patched last
    emit("    ff = ex._fetch_floor")
    emit("    bw = ex._branch_resolve_watermark")
    emit("    lp = ex._last_pim_issue")
    emit("    lc = ex.last_commit")
    emit("    ix = ex.index")
    emit("    rob = ex._rob")
    emit("    rr = ex._reg_ready")
    emit("    rrg = rr.get")
    emit("    sf = ex._store_forward")
    emit("    sfg = sf.get")
    emit("    nld = nst = nbr = nal = npm = nrd = nfw = 0")
    emit("    nhl = nhs = 0")
    emit("    npr = nco = nmi = nbm = 0")
    emit("    hist = _pd._history")
    emit("    mrl = _mr._releases")
    emit("    mwl = _mw._releases")
    if "_pw" in binds:
        emit("    pwl = _pw._releases")
    for p in slotted:
        emit(f"    {p}c = _{p}._counts")
        emit(f"    {p}h = _{p}._horizon")
        emit(f"    {p}r = _{p}._rot")
        emit(f"    {p}k = _{p}._peak")
    emit("    for dj in range(djlo, djhi):")
    body_mode[0] = True
    if offsets:
        emit(f"    sh = (sh0 + dj * {K(shape.rpi)}) % {window}")
    for off in sorted(offsets):
        emit(f"    {reg_names[off]} = {start} + (({K(off)} + sh) % {window})")
    body_mode[0] = False

    def addr_expr(k: int, delta: int) -> str:
        return f"AB[{k}]" + (f" + dj * {K(delta)}" if delta else "")

    def emit_acquire(lst: str, entries: int, at: str, release: str,
                     out: Optional[str]) -> None:
        """Inline OccupancyResource.acquire on the pre-bound heap."""
        emit(f"    while {lst} and {lst}[0] <= {at}: _hpo({lst})")
        emit(f"    if len({lst}) < {K(entries)}: g = {at}")
        emit(f"    else: g = _hpo({lst})")
        emit(f"    _hpu({lst}, {release} if {release} > g else g)")
        if out is not None:
            emit(f"    {out} = g")

    def emit_reserve(p: str, in_expr: str, out: str) -> None:
        """Inline SlottedResource.reserve on the pre-bound ring state.

        The rare paths (window reset, prune) drop to the method and
        re-bind the locals; the grant scan itself runs against the
        shared counter list, so only ``_peak`` needs a write-back (the
        epilogue does it).
        """
        res = slotted[p]
        mask = K(res._mask)
        emit(f"    w = {in_expr}")
        emit(f"    if w < {p}h: w = {p}h")
        emit(f"    if w > {p}h + {mask}:")
        emit(f"        _{p}._peak = {p}k")
        emit(f"        w = _{p}.reserve(w)")
        emit(f"        {p}c = _{p}._counts; {p}h = _{p}._horizon; "
             f"{p}r = _{p}._rot; {p}k = _{p}._peak")
        emit("    else:")
        emit(f"        i = (w + {p}r) & {mask}")
        emit(f"        while {p}c[i] >= {K(res.slots_per_cycle)}:")
        emit("            w += 1")
        emit(f"            i = (w + {p}r) & {mask}")
        emit(f"        {p}c[i] += 1")
        emit(f"        if w > {p}k: {p}k = w")
        emit(f"        if w - {p}h > {K(2 * res._window)}:")
        emit(f"            _{p}._advance(w - {K(res._window)})")
        emit(f"            {p}h = _{p}._horizon")
        if out != "w":
            emit(f"    {out} = w")

    def emit_occupy(names: tuple, at: str, occupancy: int) -> None:
        pool, units, n = names
        emit(f"    c = {pool}.cursor")
        emit(f"    u = {units}[c % {K(n)}]")
        emit(f"    {pool}.cursor = c + 1")
        emit("    st = u._next_free")
        emit(f"    if {at} > st: st = {at}")
        emit(f"    u._next_free = st + {K(occupancy)}")

    body_mode[0] = True
    pim_ordinal = 0
    for k, step in enumerate(shape.steps):
        op, pc, _a0, delta, size, srcs, dst, taken, aux = step
        # ---- front end ----
        emit_reserve("fs", "ff", "f")
        if op == OP_BRANCH:
            emit_reserve("bs", "f", "bf")
            emit("    if bf > f: f = bf")
        emit(f"    d = f + {K(fe)}")
        emit(f"    rs = ix % {K(rob_len)}")
        emit(f"    if ix >= {K(rob_len)}:")
        emit("        h = rob[rs]")
        emit("        if h > d:")
        emit("            d = h")
        emit(f"            fl = d - {K(fe)}")
        emit("            if fl > ff: ff = fl")
        # ---- register dependences ----
        emit("    rdy = d")
        for encoded in srcs:
            emit(f"    t = rrg({reg_expr(encoded)}, 0)")
            emit("    if t > rdy: rdy = t")
        # ---- issue + execute ----
        if op == OP_ALU:
            pool, latency, occupancy = aux
            names = pool_names(pool)
            emit_reserve("qs", "rdy", "iss")
            emit_occupy(names, "iss", occupancy)
            emit(f"    cp = st + {K(latency)}")
            emit("    nal += 1")
        elif op == OP_LOAD:
            pool, latency, occupancy = aux
            names = pool_names(pool)
            emit_reserve("qs", "rdy", "iss")
            emit_acquire("mrl", core.mob_read_entries, "iss", "iss", "iss")
            emit_occupy(names, "iss", occupancy)
            emit(f"    a = {addr_expr(k, delta)}")
            emit("    fw = sfg(a)")
            emit(f"    if fw is not None and fw[0] >= {K(size)}:")
            emit("        t = fw[1]")
            emit("        cp = (st if st > t else t) + 1")
            emit("        nfw += 1")
            if inline_l1:
                span = size if size > 1 else 1
                emit("    else:")
                emit(f"        ln = a - a % {K(line_bytes)}")
                emit(f"        if (a + {K(span - 1)}) - ln < {K(line_bytes)}:")
                emit(f"            cp = _l1a(st, ln, _AL, {K(pc)})")
                emit("            if cp < st: cp = st")
                emit("            nhl += 1")
                emit("        else:")
                emit(f"            cp = _hl(st, a, {K(size)}, {K(pc)})")
            else:
                emit("    else:")
                emit(f"        cp = _hl(st, a, {K(size)}, {K(pc)})")
            emit_acquire("mrl", core.mob_read_entries, "st", "cp", None)
            emit("    nld += 1")
        elif op == OP_STORE:
            pool, latency, occupancy = aux
            names = pool_names(pool)
            emit_reserve("qs", "rdy", "iss")
            emit_occupy(names, "iss", occupancy)
            emit("    cp = st + 1")
            emit("    nst += 1")
        elif op == OP_BRANCH:
            pool, latency, occupancy = aux
            names = pool_names(pool)
            emit_reserve("qs", "rdy", "iss")
            emit_occupy(names, "iss", occupancy)
            emit(f"    cp = st + {K(latency)}")
            emit("    if cp > bw: bw = cp")
            # Inlined TwoLevelGAs.update with the direction a constant:
            # the PHT/BTB containers are baked in, the global history
            # lives in a loop local, counters batch like the others.
            pht_mask = predictor._pht_mask
            hist_mask = predictor._history_mask
            emit(f"    pi = ({K(pc << 2)} ^ hist) & {K(pht_mask)}")
            emit("    ctr = _pht[pi]")
            if taken:
                emit("    ok = ctr >= 2")
                emit(f"    if {K(pc)} in _btb:")
                emit(f"        _btb.move_to_end({K(pc)})")
                emit("    else:")
                emit("        ok = False")
                emit("        nbm += 1")
                emit(f"        _btb[{K(pc)}] = {K(pc)}")
                emit(f"        while len(_btb) > {K(predictor.config.btb_entries)}: "
                     "_btb.popitem(last=False)")
                emit("    if ctr < 3: _pht[pi] = ctr + 1")
                emit(f"    hist = ((hist << 1) | 1) & {K(hist_mask)}")
            else:
                emit("    ok = ctr < 2")
                emit("    if ctr > 0: _pht[pi] = ctr - 1")
                emit(f"    hist = (hist << 1) & {K(hist_mask)}")
            emit("    npr += 1")
            emit("    if ok:")
            emit("        nco += 1")
            emit("    else:")
            emit("        nmi += 1")
            emit(f"        rd = cp + {K(core.mispredict_penalty)}")
            emit("        if rd > ff: ff = rd")
            emit("        nrd += 1")
            if taken:
                emit("    if ok:")
                emit("        if f + 1 > ff: ff = f + 1")
            emit("    nbr += 1")
        elif op == OP_PIM:
            inst, _p0, pdelta, speculative = aux
            name = f"_pi{pim_ordinal}"
            binds[name] = inst
            names = pool_names(execution.units._table[UopClass.PIM.index][0])
            occupancy = execution.units._table[UopClass.PIM.index][2]
            emit("    e = rdy")
            emit("    if lp > e: e = lp")
            if not speculative:
                emit("    if bw > e: e = bw")
            emit_reserve("qs", "e", "e")
            pw_entries = execution._pim_window.num_entries
            emit("    while pwl and pwl[0] <= e: _hpo(pwl)")
            emit(f"    if len(pwl) >= {K(pw_entries)}:")
            emit("        wf = pwl[0]")
            emit("        if wf > e: e = wf")
            emit_occupy(names, "e", occupancy)
            emit(f"    {name}.address = PB[{pim_ordinal}]"
                 + (f" + dj * {K(pdelta)}" if pdelta else ""))
            emit(f"    cp, rl = _sub({name}, st)")
            emit_acquire("pwl", pw_entries, "st", "rl", None)
            emit("    lp = st")
            emit("    npm += 1")
            pim_ordinal += 1
        else:  # OP_NOP
            emit_reserve("qs", "rdy", "iss")
            emit("    cp = iss")
        # ---- in-order commit ----
        emit("    cr = cp if cp > lc else lc")
        emit_reserve("cs", "cr", "cm")
        emit("    lc = cm")
        emit("    rob[rs] = cm")
        if op == OP_STORE:
            emit(f"    a = {addr_expr(k, delta)}")
            if inline_l1:
                span = size if size > 1 else 1
                emit(f"    ln = a - a % {K(line_bytes)}")
                emit(f"    if (a + {K(span - 1)}) - ln < {K(line_bytes)}:")
                emit(f"        ac = _l1a(cm, ln, _AS, {K(pc)})")
                emit("        if ac < cm: ac = cm")
                emit("        nhs += 1")
                emit("    else:")
                emit(f"        ac = _hs(cm, a, {K(size)}, {K(pc)})")
            else:
                emit(f"    ac = _hs(cm, a, {K(size)}, {K(pc)})")
            emit_acquire("mwl", core.mob_write_entries, "iss", "ac", None)
            emit(f"    sf[a] = ({K(size)}, cp)")
            emit(f"    if len(sf) > {K(core.mob_write_entries)}: "
                 "sf.pop(next(iter(sf)))")
        if dst is not None:
            emit(f"    rr[{reg_expr(dst)}] = cp")
        emit("    ix += 1")
    body_mode[0] = False

    for p in slotted:
        emit(f"    _{p}._peak = {p}k")
    emit("    if nhl: _hy._n_loads += nhl")
    emit("    if nhs: _hy._n_stores += nhs")
    emit("    _pd._history = hist")
    emit("    if npr:")
    emit("        _pd._n_predictions += npr")
    emit("        _pd._n_correct += nco")
    emit("        _pd._n_mispredictions += nmi")
    emit("        _pd._n_btb_misses += nbm")
    emit("    ex._fetch_floor = ff")
    emit("    ex._branch_resolve_watermark = bw")
    emit("    ex._last_pim_issue = lp")
    emit("    ex.last_commit = lc")
    emit("    ex.index = ix")
    emit("    if nld: ex._n_loads += nld")
    emit("    if nst: ex._n_stores += nst")
    emit("    if nbr: ex._n_branches += nbr")
    emit("    if nal: ex._n_alu += nal")
    emit("    if npm: ex._n_pim += npm")
    emit("    if nrd: ex._n_redirects += nrd")
    emit("    if nfw: ex._n_forwards += nfw")

    # Every bound object and interned literal becomes a default
    # argument (fast locals in the generated body); the signature is
    # patched last so binds added during body emission are included.
    L[0] = ("def _kernel(ex, djlo, djhi, sh0, AB, PB, "
            + ", ".join(f"{name}={name}" for name in binds) + "):")
    namespace = dict(binds)
    source = "\n".join(L)
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, f"<runkernel#{_CODE_STATS['compiled']}>", "exec")
        _CODE_STATS["compiled"] += 1
        if len(_CODE_CACHE) > 256:  # runaway-shape backstop
            _CODE_CACHE.clear()
        _CODE_CACHE[source] = code
    else:
        _CODE_STATS["shared"] += 1
    exec(code, namespace)  # noqa: S102 - source is built from internal ints
    shape.fn = namespace["_kernel"]


# ---------------------------------------------------------------------------
# the per-run driver
# ---------------------------------------------------------------------------


class KernelRunner:
    """Per-run executor: captures, compiles/anchors, then replays the body.

    ``iterations(jlo, jhi)`` is the single entry point both exact-path and
    replay-path drivers use; it returns the number of uops processed.
    Spans must be requested in increasing order (the TraceRun contract)
    but may jump forward — the affine model is positional in ``j``, so a
    fast-forwarded run resumes correctly.
    """

    __slots__ = ("execution", "run", "instance", "_shape", "_capturing",
                 "_samples", "_expect_j", "_q", "_earlier")

    def __init__(self, execution, run) -> None:
        self.execution = execution
        self.run = run
        self.instance: Optional[RunInstance] = None
        self._shape: Optional[RunShape] = None
        self._capturing = False
        self._q = 1
        #: iteration-0 samples of earlier runs of this key (cross-run)
        self._earlier: Optional[List[tuple]] = None
        if setting("REPRO_KERNEL"):
            q = _stride_period(run)
            self._q = q
            shape = execution.kernel_shapes.get(run.key)
            self._shape = shape
            if shape is not None:
                if shape.q == 1:
                    self.instance = synthesize_instance(shape, run)
                    self._capturing = self.instance is None
                else:
                    # A fractional region's sub-byte phase is invisible
                    # in its declared (lo, hi, stride): two runs with
                    # identical regions can interleave byte addresses
                    # differently.  Region synthesis is therefore
                    # unsound for q > 1 — re-anchor from one observed
                    # super-sample instead (the capture path below).
                    self._capturing = True
            elif q <= SUPER_MAX_PERIOD:
                # Compile only when the shape will repay the code
                # generation — enough iterations left in this run, or
                # enough short runs of this key seen before.  Capture
                # burns CAPTURE_ITERATIONS * q iterations.
                pending = execution.kernel_pending
                seen = pending.get(run.key, 0) + run.count
                if (run.count >= MIN_KERNEL_ITERATIONS * q
                        and seen - CAPTURE_ITERATIONS * q
                        >= MIN_COMPILE_BENEFIT):
                    self._capturing = True
                else:
                    if q == 1 and run.key in pending:
                        # A key seen before: sample its runs' first
                        # iterations, and compile from three of them
                        # once it has promised enough iterations.
                        self._earlier = execution.kernel_samples.setdefault(
                            run.key, [])
                    pending[run.key] = seen
        self._samples: List[List[Uop]] = []
        self._expect_j = None

    def iterations(self, jlo: int, jhi: int) -> int:
        """Simulate iterations ``[jlo, jhi)``; returns the uop total.

        Once the run is compiled, the whole span is one generated-loop
        call — the per-iteration cost is the body alone, with the
        pipeline-state loads/stores amortised over the span.
        """
        instance = self.instance
        j = jlo
        total = 0
        while instance is None and j < jhi:
            total += self._iteration(j)
            j += 1
            instance = self.instance
        if j >= jhi:
            return total
        shape = instance.shape
        q = shape.q
        if q == 1:
            base = instance.j0
            shape.fn(self.execution, j - base, jhi - base, instance.sh0,
                     instance.abases, instance.pbases)
            return total + (jhi - j) * shape.n_steps
        # Super-iteration stepping: the generated body covers q
        # consecutive iterations, so a misaligned head and the
        # sub-super tail run uncompiled around one generated call.
        execution = self.execution
        process = execution.process
        base = instance.j0 * q
        while j < jhi and (j - base) % q:
            for uop in self.run.make(j):
                process(uop)
                total += 1
            j += 1
        n_super = (jhi - j) // q
        if n_super > 0:
            djlo = (j - base) // q
            shape.fn(execution, djlo, djlo + n_super, instance.sh0,
                     instance.abases, instance.pbases)
            j += n_super * q
            total += n_super * shape.n_steps
        while j < jhi:
            for uop in self.run.make(j):
                process(uop)
                total += 1
            j += 1
        return total

    def _cross_run(self, sample: List[Uop]) -> None:
        """Keep iteration 0 of a short run, or compile its key from it.

        The key compiles once it has promised ``MIN_COMPILE_BENEFIT``
        iterations across its runs and two earlier runs left a sample;
        samples that disagree are dropped and collected afresh.
        """
        execution = self.execution
        run = self.run
        earlier = self._earlier
        if len(earlier) < CAPTURE_ITERATIONS - 1:
            earlier.append((sample, run.regions, run.reg_base))
            return
        if execution.kernel_pending[run.key] < MIN_COMPILE_BENEFIT:
            return
        samples = cross_run_samples(run, sample, earlier)
        shape = None if samples is None else compile_shape(
            execution, run, samples, 0)
        if shape is None:
            earlier.clear()
            return
        execution.kernel_shapes[run.key] = shape
        execution.kernel_pending.pop(run.key, None)
        execution.kernel_samples.pop(run.key, None)
        self.instance = _own_instance(shape)

    def _iteration(self, j: int) -> int:
        """Simulate iteration ``j`` of a not yet compiled run.

        Returns its uop count; while capturing, the iteration also
        feeds compilation (or re-anchoring) of the run's shape.
        """
        execution = self.execution
        process = execution.process
        if self._earlier is not None and j == 0:
            sample = list(self.run.make(0))
            for uop in sample:
                process(uop)
            self._cross_run(sample)
            return len(sample)
        if not self._capturing:
            uops = 0
            for uop in self.run.make(j):
                process(uop)
                uops += 1
            return uops
        # Capture: materialise, simulate normally, keep for compilation.
        sample = list(self.run.make(j))
        for uop in sample:
            process(uop)
        if self._shape is not None:
            # The shape exists but could not be synthesised from the
            # run's declared anchors: one (super-)iteration re-anchors
            # it with the *observed* addresses, which also recovers the
            # sub-byte phase a fractional region cannot declare.
            if self._q > 1:
                if self._expect_j is not None and j != self._expect_j:
                    self._samples = []
                if self._samples or j % self._q == 0:
                    self._samples.append(sample)
                self._expect_j = j + 1
                if len(self._samples) < self._q:
                    return len(sample)
                merged = [uop for it in self._samples for uop in it]
                self._samples = []
                # The observed bases carry whatever phase this run has;
                # the per-super deltas are phase-independent, so one
                # shape serves every phase.  A structural mismatch
                # leaves the run uncompiled (shape kept for others).
                self.instance = rebase_instance(
                    self._shape, self.run, merged, (j + 1 - self._q) // self._q)
                self._capturing = False
                return len(sample)
            self.instance = rebase_instance(self._shape, self.run, sample, j)
            if self.instance is not None:
                self._capturing = False
                return len(sample)
            # Shape mismatch (should not happen under the TraceRun
            # contract): drop it and fall back to a fresh capture,
            # under the same benefit gating as a never-seen shape.
            self._shape = None
            pending = execution.kernel_pending
            seen = pending.get(self.run.key, 0) + self.run.count
            self._capturing = (
                self.run.count >= MIN_KERNEL_ITERATIONS
                and seen - CAPTURE_ITERATIONS >= MIN_COMPILE_BENEFIT
            )
            if not self._capturing:
                pending[self.run.key] = seen
                return len(sample)
        if self._expect_j is not None and j != self._expect_j:
            self._samples = []  # capture needs consecutive iterations
        q = self._q
        if self._samples or j % q == 0:
            # super-samples must start at an aligned boundary (no-op
            # condition for q == 1: every iteration is aligned)
            self._samples.append(sample)
        self._expect_j = j + 1
        if len(self._samples) == CAPTURE_ITERATIONS * q:
            if q == 1:
                samples = self._samples
            else:
                samples = [
                    [uop for it in self._samples[s * q:(s + 1) * q]
                     for uop in it]
                    for s in range(CAPTURE_ITERATIONS)
                ]
            shape = compile_shape(execution, self.run, samples,
                                  (j + 1) // q - CAPTURE_ITERATIONS, q)
            self._samples = []
            self._capturing = False
            if shape is not None:
                execution.kernel_shapes[self.run.key] = shape
                execution.kernel_pending.pop(self.run.key, None)
                self.instance = _own_instance(shape)
        return len(sample)


def consume_runs(execution, runs) -> None:
    """Drive a TraceRun stream through the kernel cache (the exact path).

    Equivalent to processing ``flatten_runs(runs)`` uop by uop — the
    kernel path is bit-identical — but each compiled run body skips the
    codegen generators and the per-uop dispatch entirely.
    """
    for run in runs:
        KernelRunner(execution, run).iterations(0, run.count)
