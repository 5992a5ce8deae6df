"""Tests for the cudaEvent analog."""

import os
import pickle
import subprocess
import sys

from repro.gpu import EventId, EventNamespace, ProfileRange


class TestEventNamespace:
    def test_unique_ids(self):
        ns = EventNamespace()
        events = [ns.new_event() for _ in range(10)]
        assert len({e.index for e in events}) == 10

    def test_independent_namespaces(self):
        a, b = EventNamespace(), EventNamespace()
        assert a.new_event().index == b.new_event().index == 0

    def test_labels(self):
        ns = EventNamespace()
        ev = ns.new_event("epoch3")
        assert "epoch3" in str(ev)

    def test_hashable(self):
        ns = EventNamespace()
        e1 = ns.new_event("x")
        assert e1 in {e1}
        assert EventId(0, "x") == EventId(0, "x")

    def test_cached_hash_is_rebuilt_in_another_process(self):
        """The hash is the dataclass's ``hash((index, label))``, computed
        once; a pickled event (sent to a pool worker) must hash like a
        fresh one there, although str hashes differ between processes."""
        ev = EventId(3, "epoch")
        assert hash(ev) == hash((3, "epoch"))
        child = (
            "import pickle, sys\n"
            "from repro.gpu import EventId\n"
            "ev = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(ev) == hash((3, 'epoch'))\n"
            "assert {EventId(3, 'epoch'): 1}[ev] == 1\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", child], input=pickle.dumps(ev),
                       env=env, check=True, timeout=60)


class TestProfileRange:
    def test_carries_mangled_key(self):
        ns = EventNamespace()
        r = ProfileRange(key=("alloc", 0, "gemm", 3), start=ns.new_event(), end=ns.new_event())
        assert r.key[0] == "alloc"
        assert r.start.index != r.end.index
