import signal
from contextlib import contextmanager

import pytest

from partfan import arrangement as arrlib
from partfan import catalog
from partfan import category as catlib
from partfan import partition as partlib
from strategies import A3_NORMALS, b_normals


@pytest.fixture
def time_limit():
    """A context manager that fails the test once its body runs ``seconds``.

    SIGALRM interrupts the computation, so a routine that blows up fails
    the test instead of hanging the run.
    """
    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError("still running after %s s" % seconds)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture(scope="session")
def square_fan():
    return catalog.square()


@pytest.fixture(scope="session")
def hzb_fan():
    return catalog.hirzebruch(1)


@pytest.fixture(scope="session")
def three_lines_fan():
    return catalog.three_lines()


@pytest.fixture(scope="session")
def torus_partition(square_fan):
    return catalog.torus_partition(square_fan)


@pytest.fixture(scope="session")
def p1_partition(hzb_fan):
    return catalog.hirzebruch_p1(hzb_fan)


@pytest.fixture(scope="session")
def three_lines_partition(three_lines_fan):
    return catalog.three_lines_partition(three_lines_fan)


class BrauerBundle:
    def __init__(self):
        self.arrangement = catalog.brauer()
        self.arrfan = arrlib.arrangement_fan(self.arrangement, with_signs=True)
        self.fan = self.arrfan.fan
        self.base = next(c for c in self.fan.max_cones
                         if self.arrfan.sign_of(c) == (1,) * 7)
        self.flat = arrlib.flat_partition(self.arrangement, self.fan)
        self.shards = arrlib.shards(self.arrangement, self.arrfan, self.base)
        self.shard = arrlib.shard_partition(self.arrangement, self.arrfan, self.base)
        self.poset = arrlib.poset_of_regions(self.arrfan, self.base)
        self._categories = {}

    def category(self, which):
        if which not in self._categories:
            partition = self.flat if which == "flat" else self.shard
            self._categories[which] = catlib.build_category(self.fan, partition)
        return self._categories[which]


@pytest.fixture(scope="session")
def brauer():
    return BrauerBundle()


@pytest.fixture(scope="session")
def coxeter_partitions(brauer):
    """name -> (fan, {"flat", "shard", "finest"} -> partition) for A3, Brauer
    and B3; shards from the all-positive chamber."""
    out = {"brauer": (brauer.fan, {"flat": brauer.flat, "shard": brauer.shard,
                                   "finest": partlib.from_blocks(brauer.fan, [])})}
    for name, normals in (("A3", A3_NORMALS), ("B3", b_normals(3))):
        arrangement = arrlib.Arrangement(3, normals)
        arrfan = arrlib.arrangement_fan(arrangement, with_signs=True)
        fan = arrfan.fan
        base = next(c for c in fan.max_cones
                    if arrfan.sign_of(c) == (1,) * len(normals))
        out[name] = (fan, {"flat": arrlib.flat_partition(arrangement, fan),
                           "shard": arrlib.shard_partition(arrangement, arrfan, base),
                           "finest": partlib.from_blocks(fan, [])})
    return out


@pytest.fixture(scope="session")
def square_admissible(square_fan):
    return partlib.enumerate_admissible(square_fan)


@pytest.fixture(scope="session")
def hzb_admissible(hzb_fan):
    return partlib.enumerate_admissible(hzb_fan)
