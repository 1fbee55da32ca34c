import pytest

from qptori import parallel


@pytest.mark.parametrize("k", [0, -1])
def test_worker_count_below_one_refused(k):
    workers, pool = parallel.get_workers(), parallel._pool
    with pytest.raises(ValueError, match=f"got {k}$"):
        parallel.set_workers(k)
    assert parallel.get_workers() == workers and parallel._pool is pool
