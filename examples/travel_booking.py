"""A composite travel booking across four peers — nested recovery in action.

The classic compensation example ("the compensation of Book Hotel is
Cancel Hotel Booking", §3.1) as an AXML transaction:

* ``Agency`` (origin) keeps an itinerary document;
* ``AirlinePeer``, ``HotelPeer`` and ``CarPeer`` each host a booking
  document and a ``book*`` update service.

Three runs:

1. everything succeeds → commit;
2. the car rental faults after flight+hotel booked → nested recovery
   compensates all peers (peer-dependent mode);
3. same failure under *peer-independent* compensation (§3.2): each
   provider returned its compensating-service definition with the
   booking result, so the origin drives the cleanup directly — and the
   providers never know they executed compensations.

Run:  python examples/travel_booking.py
"""

from repro import (
    AXMLDocument,
    AXMLPeer,
    ServiceDescriptor,
    ServiceFault,
    SimNetwork,
    UpdateService,
)
from repro.xmlstore.serializer import canonical


def build_world(peer_independent: bool):
    network = SimNetwork()
    peers = {}
    for name in ("Agency", "AirlinePeer", "HotelPeer", "CarPeer"):
        peers[name] = AXMLPeer(name, network, peer_independent=peer_independent)
    peers["Agency"].host_document(
        AXMLDocument.from_xml("<Itinerary><legs/></Itinerary>", name="Itinerary")
    )
    bookings = {
        "AirlinePeer": ("bookFlight", "Flights", "flight"),
        "HotelPeer": ("bookHotel", "Hotels", "room"),
        "CarPeer": ("bookCar", "Cars", "car"),
    }
    for peer_name, (method, doc_name, unit) in bookings.items():
        peers[peer_name].host_document(
            AXMLDocument.from_xml(f"<{doc_name}><bookings/></{doc_name}>", name=doc_name)
        )
        peers[peer_name].host_service(
            UpdateService(
                ServiceDescriptor(
                    method,
                    params=("customer",),
                    target_document=doc_name,
                ),
                f'<action type="insert"><data><{unit} customer="$customer"/></data>'
                f"<location>Select b from b in {doc_name}//bookings;</location></action>",
            )
        )
    return network, peers


def booked_state(peers):
    out = []
    for name, doc in (("AirlinePeer", "Flights"), ("HotelPeer", "Hotels"), ("CarPeer", "Cars")):
        out.append(f"  {doc}: {peers[name].get_axml_document(doc).to_xml()}")
    return "\n".join(out)


def run_booking(peers, fail_car=False):
    agency = peers["Agency"]
    if fail_car:
        agency.network.injector.fault_service("CarPeer", "bookCar", "NoCarsAvailable")
    txn = agency.begin_transaction()
    try:
        agency.invoke(txn.txn_id, "AirlinePeer", "bookFlight", {"customer": "ada"})
        agency.invoke(txn.txn_id, "HotelPeer", "bookHotel", {"customer": "ada"})
        agency.invoke(txn.txn_id, "CarPeer", "bookCar", {"customer": "ada"})
    except ServiceFault as fault:
        print(f"  bookCar raised {fault.fault_name!r} -> aborting the trip")
        agency.abort(txn.txn_id)
        return txn, False
    agency.commit(txn.txn_id)
    return txn, True


def main() -> None:
    print("=== run 1: happy path (peer-dependent) ===")
    network, peers = build_world(peer_independent=False)
    txn, ok = run_booking(peers)
    print(f"  committed: {ok}")
    print(booked_state(peers), "\n")

    print("=== run 2: car rental fails -> nested recovery compensates ===")
    network, peers = build_world(peer_independent=False)
    pre = {
        name: canonical(peers[name].get_axml_document(doc).document)
        for name, doc in (("AirlinePeer", "Flights"), ("HotelPeer", "Hotels"))
    }
    txn, ok = run_booking(peers, fail_car=True)
    print(f"  committed: {ok}")
    print(booked_state(peers))
    restored = all(
        canonical(peers[name].get_axml_document(doc).document) == pre[name]
        for name, doc in (("AirlinePeer", "Flights"), ("HotelPeer", "Hotels"))
    )
    print(f"  flight and hotel bookings compensated: {restored}\n")

    print("=== run 3: same failure, peer-independent compensation (§3.2) ===")
    network, peers = build_world(peer_independent=True)
    txn, ok = run_booking(peers, fail_car=True)
    print(f"  committed: {ok}")
    ledger = peers["Agency"].manager.context(txn.txn_id).received_compensations
    print(f"  compensating-service definitions the origin had collected: {len(ledger)}")
    print(f"  compensations executed by providers unknowingly: "
          f"{network.metrics.get('peer_independent_compensations')}")
    print(booked_state(peers))


if __name__ == "__main__":
    main()
