"""Property layer for the sharded cache array.

Three families of properties pin the sharding design down:

1. **Routing is a total partition** — every LBN maps to exactly one
   shard, deterministically, and all pages of one erase group land on
   the same shard (group ``g`` on shard ``g % N``), so block-level
   mapping density survives sharding.
2. **Shard count is invisible to logical contents** — the same
   operation sequence applied to arrays of 1, 2, 4 and 7 shards leaves
   the identical logical cache: same cached LBNs, same values, same
   dirty set (``exists``).  Sharding may move blocks between devices,
   never change what the cache holds.
3. **Stats aggregation is a commutative monoid** — ``merge()`` on
   :class:`ManagerStats`, :class:`FTLStats` and :class:`FlashStats` is
   associative and commutative with the default-constructed value as
   unit, which is what makes per-shard aggregation order-independent.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import NotPresentError
from repro.core.sharding import ShardedSSC
from repro.flash.chip import FlashStats
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FTLStats
from repro.manager.base import ManagerStats
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.util.hashing import mix64

SHARD_COUNTS = (1, 2, 4, 7)
LBN_RANGE = 64
PAGES_PER_BLOCK = 8


def build_array(shards: int) -> ShardedSSC:
    """An array whose members are each big enough for the whole op
    budget — no silent eviction, so logical contents depend only on
    the issued operations, never on shard-local capacity pressure."""
    members = [
        SolidStateCache(
            FlashGeometry(planes=2, blocks_per_plane=16,
                          pages_per_block=PAGES_PER_BLOCK),
            config=SSCConfig(),
        )
        for _ in range(shards)
    ]
    return ShardedSSC(members)


# ----------------------------------------------------------------------
# 1. Routing is a total partition at group granularity
# ----------------------------------------------------------------------

_ARRAYS = {}


def cached_array(shards: int) -> ShardedSSC:
    """One array per shard count, shared by the routing properties
    (routing reads nothing but the shard count and the geometry)."""
    if shards not in _ARRAYS:
        _ARRAYS[shards] = build_array(shards)
    return _ARRAYS[shards]


@given(
    lbn=st.integers(min_value=0, max_value=1 << 40),
    shards=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_routing_total_and_deterministic(lbn, shards):
    array = cached_array(shards)
    owner = array.shard_of(lbn)
    assert any(owner is member for member in array.shards)
    assert array.shard_of(lbn) is owner  # deterministic


@given(
    group=st.integers(min_value=0, max_value=1 << 30),
    shards=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_routing_group_granular(group, shards):
    """Every page of one erase group routes to the same shard."""
    array = cached_array(shards)
    base = group * PAGES_PER_BLOCK
    owners = {id(array.shard_of(base + offset)) for offset in range(PAGES_PER_BLOCK)}
    assert len(owners) == 1


@given(shards=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_stripe_round_robins_groups(shards):
    array = cached_array(shards)
    for group in range(3 * shards):
        assert array.shard_of(group * PAGES_PER_BLOCK) is array.shards[group % shards]


class _RouteLog:
    def __init__(self):
        self.shards = []

    def emit(self, name, lane, lbn, shard):
        self.shards.append(shard)


@given(
    lbn=st.integers(min_value=0, max_value=1 << 40),
    shards=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_data_path_routes_where_shard_of_points(lbn, shards):
    """The traced data-path route and :meth:`shard_of` name one shard."""
    array = cached_array(shards)
    log = _RouteLog()
    array.tracer = log
    try:
        routed = array._routed(lbn)
    finally:
        del array.tracer
    assert routed is array.shard_of(lbn)
    assert log.shards == [array.shards.index(routed)]


def test_mix64_is_a_bijection_sample():
    # The finalizer is invertible on 64-bit values; a collision in a
    # large sample would mean it is not mixing (and would skew the
    # native manager's set choice).  2^16 distinct inputs must give
    # 2^16 distinct outputs.
    outputs = {mix64(value) for value in range(1 << 16)}
    assert len(outputs) == 1 << 16


# ----------------------------------------------------------------------
# 2. Logical contents are invariant in the shard count
# ----------------------------------------------------------------------

operations = st.lists(
    st.tuples(
        st.sampled_from(["write_dirty", "write_clean", "clean", "evict"]),
        st.integers(min_value=0, max_value=LBN_RANGE - 1),
    ),
    max_size=25,
)


def apply_ops(array: ShardedSSC, ops) -> None:
    for index, (kind, lbn) in enumerate(ops):
        if kind == "write_dirty":
            array.write_dirty(lbn, ("v", lbn, index))
        elif kind == "write_clean":
            array.write_clean(lbn, ("v", lbn, index))
        elif kind == "clean":
            array.clean(lbn)
        else:
            array.evict(lbn)


def logical_state(array: ShardedSSC):
    """Everything a host can observe about contents, as one value."""
    contents = {}
    for lbn in range(LBN_RANGE):
        try:
            value, _completion = array.read(lbn)
        except NotPresentError:
            continue
        contents[lbn] = (value, array.is_dirty(lbn))
    dirty, _cost = array.exists(0, LBN_RANGE)
    cached = sorted(
        lbn for shard in array.shards for lbn in shard.engine.iter_cached_lbns()
    )
    return contents, dirty, cached, array.cached_blocks()


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_contents_invariant_across_shard_counts(ops):
    reference = None
    for shards in SHARD_COUNTS:
        array = build_array(shards)
        apply_ops(array, ops)
        state = logical_state(array)
        if reference is None:
            reference = state
        else:
            assert state == reference, f"shards={shards} diverged"


@given(ops=operations)
@settings(max_examples=15, deadline=None)
def test_every_cached_block_lives_on_its_routed_shard(ops):
    array = build_array(4)
    apply_ops(array, ops)
    for shard in array.shards:
        for lbn in shard.engine.iter_cached_lbns():
            assert array.shard_of(lbn) is shard


# ----------------------------------------------------------------------
# 3. merge() is a commutative monoid
# ----------------------------------------------------------------------

counters = st.integers(min_value=0, max_value=1 << 30)


def _stats_strategy(cls):
    fields = list(vars(cls()).keys())
    return st.builds(
        lambda values: cls(**dict(zip(fields, values))),
        st.tuples(*[counters for _ in fields]),
    )


manager_stats = _stats_strategy(ManagerStats)
ftl_stats = _stats_strategy(FTLStats)
flash_stats = _stats_strategy(FlashStats)


@given(a=manager_stats, b=manager_stats, c=manager_stats)
@settings(max_examples=50, deadline=None)
def test_manager_stats_merge_monoid(a, b, c):
    assert vars(a.merge(b)) == vars(b.merge(a))
    assert vars(a.merge(b).merge(c)) == vars(a.merge(b.merge(c)))
    assert vars(a.merge(ManagerStats())) == vars(a)
    assert vars(ManagerStats().merge(a)) == vars(a)


@given(a=ftl_stats, b=ftl_stats, c=ftl_stats)
@settings(max_examples=50, deadline=None)
def test_ftl_stats_merge_monoid(a, b, c):
    assert vars(a.merge(b)) == vars(b.merge(a))
    assert vars(a.merge(b).merge(c)) == vars(a.merge(b.merge(c)))
    assert vars(a.merge(FTLStats())) == vars(a)


@given(a=flash_stats, b=flash_stats, c=flash_stats)
@settings(max_examples=50, deadline=None)
def test_flash_stats_merge_monoid(a, b, c):
    assert vars(a.merge(b)) == vars(b.merge(a))
    assert vars(a.merge(b).merge(c)) == vars(a.merge(b.merge(c)))
    assert vars(a.merge(FlashStats())) == vars(a)


@given(a=manager_stats, b=manager_stats)
@settings(max_examples=50, deadline=None)
def test_merge_never_mutates(a, b):
    before_a, before_b = dict(vars(a)), dict(vars(b))
    a.merge(b)
    assert vars(a) == before_a
    assert vars(b) == before_b
