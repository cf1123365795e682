"""Programmatic scenario/world construction shared by the test suite."""

from sdgateway.harness import CLIENT_ADDR, NODE_ADDR, ScenarioRun
from sdgateway.lln import RDC
from sdgateway.scenario import ClientDecl, NodeDecl, Scenario

NODE2_ADDR = "aaaa::c30c:0:0:3"


def simple_scenario(*, seed=1, hops=1, rdc=RDC.NULLRDC, loss=0.0,
                    resources=None, second_node=False, settle=30_000.0,
                    scenario_id="test") -> Scenario:
    sc = Scenario(scenario_id=scenario_id, seed=seed, rdc=rdc, hops=hops,
                  loss=loss, settle=settle)
    node = NodeDecl("n1", NODE_ADDR)
    node.resources.update(resources or {"s/t": b"18"})
    sc.nodes.append(node)
    if second_node:
        node2 = NodeDecl("n2", NODE2_ADDR)
        node2.resources["a/led"] = b"0"
        sc.nodes.append(node2)
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))
    return sc


def booted_world(sc: Scenario):
    """World with all nodes booted and associated; clock past boot."""
    run = ScenarioRun(sc)
    run.advance(until=10_000.0)
    return run.world
