"""Property-based tests for the store and the memory model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.metadata.store import MetadataStore


class TestStoreModelConformance:
    """The store must behave exactly like an ordered dict in recency
    order: ``put`` re-appends, a ``get`` hit moves to the end."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "remove"]),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60)
    def test_matches_dict_model(self, ops):
        store = MetadataStore()
        model = OrderedDict()
        for op, key_index in ops:
            path = f"/store/k{key_index}"
            if op == "put":
                meta = FileMetadata(path=path, inode=key_index)
                store.put(meta)
                model.pop(path, None)
                model[path] = meta
            elif op == "get":
                assert store.get(path) == model.get(path)
                if path in model:
                    model.move_to_end(path)
            else:
                assert store.remove(path) == (
                    model.pop(path, None) is not None
                )
            assert len(store) == len(model)
        assert list(store.records()) == list(model.values())


class TestMemoryModelProperties:
    """``MetadataServer.resident_fraction``: the one memory model."""

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=400), max_size=12),
        budget=st.one_of(st.none(), st.integers(min_value=0, max_value=30_000)),
    )
    @settings(max_examples=60)
    def test_residency_invariants(self, sizes, budget):
        server = MetadataServer(
            0,
            GHBAConfig(
                expected_files_per_mds=64,
                lru_filter_bits=1 << 10,
                memory_budget_bytes=budget,
            ),
        )
        fraction = server.resident_fraction
        for index, size in enumerate(sizes):
            server.record_lru(f"/seen/{index}", index + 1)
            server.insert_metadata(
                FileMetadata(path="/r" + "x" * size + str(index), inode=index)
            )
            assert 0.0 <= server.resident_fraction <= 1.0
            if budget is None or server.footprint_bytes <= budget:
                assert server.resident_fraction == 1.0
            else:
                assert server.resident_fraction == budget / server.footprint_bytes
            # The footprint only grew: residency never rises.
            assert server.resident_fraction <= fraction
            fraction = server.resident_fraction

