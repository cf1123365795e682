"""Programmatic scenario/world construction shared by the test suite."""

import random

from sdgateway.harness import CLIENT_ADDR, NODE_ADDR, ScenarioRun
from sdgateway.lln import RDC, Frame
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


def _sends(world, monkeypatch) -> list[Frame]:
    """Every frame `world.network.send` is given from now on, in order."""
    sent: list[Frame] = []
    original = world.network.send

    def send(frame):
        sent.append(frame)
        original(frame)

    monkeypatch.setattr(world.network, "send", send)
    return sent


def client_frames(world) -> list[bytes]:
    """The raw bytes of every frame a client of `world` receives from now
    on, in arrival order: each client's `on_frame` is wrapped on the
    instance, which is what the network schedules."""
    received: list[bytes] = []
    for client in world.clients.values():
        def on_frame(frame, original=client.on_frame):
            received.append(frame.raw)
            original(frame)
        client.on_frame = on_frame
    return received


def random_interaction_scenario(seed: int) -> Scenario:
    """Criterion 4's generator: 4-10 random client operations on one node,
    then a snapshot, a crash and a `restored` check."""
    rng = random.Random(seed)
    sc = Scenario(scenario_id=f"mix{seed}", seed=seed, settle=25_000.0)
    node = NodeDecl("n1", NODE_ADDR)
    paths = ["cfg/a", "cfg/b", "cfg/c", "cfg/d"]
    for path in paths:
        node.resources[path] = b"0"
    sc.nodes.append(node)
    node2 = NodeDecl("n2", NODE2_ADDR)
    node2.resources["a/led"] = b"0"
    sc.nodes.append(node2)
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))

    t = 1000.0
    observed: set[str] = set()
    for _ in range(rng.randint(4, 10)):
        op = rng.choice(["put", "put", "observe", "observe", "deregister",
                         "bind", "deploy"])
        path = rng.choice(paths)
        if op == "put":
            sc.event(t, "put", client="c1", node="n1", path=path,
                     value=b"%d" % rng.randint(1, 99), cf=0)
        elif op == "observe":
            sc.event(t, "observe", client="c1", node="n1", path=path, obs=0)
            observed.add(path)
        elif op == "deregister" and observed:
            gone = sorted(observed)[rng.randrange(len(observed))]
            observed.discard(gone)
            sc.event(t, "deregister", client="c1", node="n1", path=gone)
        elif op == "bind":
            sc.event(t, "bind", client="c1", node="n1", path=path,
                     dest=NODE2_ADDR, res="a/led", pmin=1, pmax=3600)
        elif op == "deploy":
            sc.event(t, "deploy", client="c1", node="n1", file=f"mod{rng.randint(0, 1)}",
                     data=rng.randbytes(rng.randint(20, 90)), block=32, loader="ldr")
        t += 700.0
    sc.check(t + 2500.0, "snapshot", "n1")
    sc.event(t + 3000.0, "crash", node="n1", down=400.0)
    sc.check(t + 14_000.0, "restored", "n1")
    return sc
