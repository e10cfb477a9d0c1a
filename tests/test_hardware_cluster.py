"""Unit tests for cluster topology and rank mapping (Figure 3)."""

import pytest

from repro.config.parallelism import ParallelismConfig
from repro.config.system import multi_node, single_node
from repro.errors import ConfigError
from repro.hardware.cluster import ClusterTopology, RankCoordinates
from repro.hardware.interconnect import LinkType


@pytest.fixture
def figure3() -> ClusterTopology:
    """The paper's Figure 3 example: (4, 2, 3)-way on 6 nodes of 4 GPUs."""
    system = multi_node(6, gpus_per_node=4)
    plan = ParallelismConfig(tensor=4, data=2, pipeline=3)
    return ClusterTopology(system, plan)


class TestRankMapping:
    def test_round_trip(self, figure3):
        for rank in range(figure3.plan.total_gpus):
            coords = figure3.coords_of(rank)
            assert figure3.rank_of(coords) == rank

    def test_tensor_group_is_one_node(self, figure3):
        """Figure 3: the yellow All-Reduce stays inside a node."""
        for d in range(2):
            for p in range(3):
                group = figure3.tensor_group(d, p)
                nodes = {figure3.node_of(r) for r in group}
                assert len(nodes) == 1

    def test_pipeline_stages_on_consecutive_nodes(self, figure3):
        """Figure 3: replica 0 spans nodes 0-2, replica 1 spans 3-5."""
        pipeline = figure3.pipeline_group(0, 0)
        assert [figure3.node_of(r) for r in pipeline] == [0, 1, 2]
        pipeline = figure3.pipeline_group(0, 1)
        assert [figure3.node_of(r) for r in pipeline] == [3, 4, 5]

    def test_data_group_pairs_distant_nodes(self, figure3):
        """Figure 3: the gray All-Reduce pairs node i with node i+3."""
        group = figure3.data_group(0, 0)
        assert [figure3.node_of(r) for r in group] == [0, 3]

    def test_rejects_out_of_range(self, figure3):
        with pytest.raises(ConfigError):
            figure3.coords_of(24)
        with pytest.raises(ConfigError):
            figure3.rank_of(RankCoordinates(tensor=4, data=0, pipeline=0))


class TestLinkClassification:
    def test_figure3_links(self, figure3):
        assert figure3.tensor_link() is LinkType.INTRA_NODE
        assert figure3.data_link() is LinkType.INTER_NODE
        assert figure3.pipeline_hop_link(0) is LinkType.INTER_NODE

    def test_single_node_everything_intra(self):
        topo = ClusterTopology(single_node(),
                               ParallelismConfig(tensor=2, data=2, pipeline=2))
        assert topo.tensor_link() is LinkType.INTRA_NODE
        assert topo.data_link() is LinkType.INTRA_NODE
        assert topo.pipeline_hop_link(0) is LinkType.INTRA_NODE

    def test_trivial_degrees_report_intra(self):
        topo = ClusterTopology(single_node(),
                               ParallelismConfig(tensor=1, data=1, pipeline=8))
        assert topo.tensor_link() is LinkType.INTRA_NODE
        assert topo.data_link() is LinkType.INTRA_NODE

    @pytest.mark.parametrize("gpus_per_node", [1, 3, 4, 8])
    def test_pipeline_hop_links_match_single_hops(self, gpus_per_node):
        """One pass equals asking each boundary, including node sizes
        that do not divide ``t * p`` (stages straddle nodes)."""
        for t in (1, 2, 4):
            for d in (1, 3):
                for p in (1, 2, 3, 5, 8):
                    nodes = -(-t * d * p // gpus_per_node)
                    topo = ClusterTopology(
                        multi_node(nodes, gpus_per_node=gpus_per_node),
                        ParallelismConfig(tensor=t, data=d, pipeline=p))
                    assert topo.pipeline_hop_links() == [
                        topo.pipeline_hop_link(i) for i in range(p - 1)]

    def test_pipeline_hop_bounds(self, figure3):
        with pytest.raises(ConfigError):
            figure3.pipeline_hop_link(2)


class TestContention:
    def test_concurrent_dp_groups_figure3(self, figure3):
        """All 4 GPUs of a node drive inter-node DP traffic at once."""
        assert figure3.concurrent_data_groups_per_node() == 4

    def test_intra_node_dp_has_no_nic_contention(self):
        topo = ClusterTopology(single_node(),
                               ParallelismConfig(tensor=1, data=8, pipeline=1))
        assert topo.concurrent_data_groups_per_node() == 1

    def test_num_nodes_used(self, figure3):
        assert figure3.num_nodes_used() == 6

    def test_plan_too_large_rejected(self):
        with pytest.raises(ConfigError):
            ClusterTopology(single_node(),
                            ParallelismConfig(tensor=8, data=2, pipeline=1))
