import sys
import threading

import numpy as np

from picard_eisenstein.memo import ArrayMemo


def table(n: int) -> tuple:
    return (np.arange(n, dtype=float), np.zeros(n, dtype=complex))


def stored_bytes(memo: ArrayMemo) -> int:
    return sum(a.nbytes for key in list(memo._items)
               for a in memo._items[key])


class TestArrayMemo:
    def test_hit_returns_the_stored_read_only_tuple(self):
        memo = ArrayMemo(10_000)
        value = memo.put("a", table(10))
        assert memo.get("a") is value and memo.get("b") is None
        assert all(not a.flags.writeable for a in value)
        assert memo.nbytes == 240

    def test_least_recently_used_goes_first(self):
        memo = ArrayMemo(3 * 240)
        for key in "abc":
            memo.put(key, table(10))
        memo.get("a")
        memo.put("d", table(10))
        assert "b" not in memo and {"a", "c", "d"} <= set(memo._items)
        assert memo.nbytes == 3 * 240

    def test_oversized_value_is_returned_but_not_stored(self):
        memo = ArrayMemo(100)
        memo.put("small", table(2))
        value = memo.put("big", table(10))
        assert len(value[0]) == 10 and "big" not in memo
        assert "small" in memo and memo.nbytes == 48

    def test_threads_keep_the_byte_count(self):
        memo = ArrayMemo(20 * 240)
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(2000):
                    key = int(rng.integers(0, 60))
                    if memo.get(key) is None:
                        memo.put(key, table(10))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert memo.nbytes == stored_bytes(memo) <= memo.cap_bytes
