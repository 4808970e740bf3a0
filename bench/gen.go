package main

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"time"

	"squery/internal/partition"
	"squery/internal/qcommerce"
)

// The generator owns every input the engine sees. A run's inputs are a
// pure function of (seed, sizes): a pool of (table, key) draws with
// Zipf(1.1) keys that the source cycles through, and seeded query
// parameters. Nothing here reads the clock, unlike qcommerce.EventAt.

// kind names the state table a record updates.
type kind uint8

const (
	kInfo kind = iota
	kStatus
	kRider
	nKinds
)

var tableOf = [nKinds]string{"orderinfo", "orderstate", "riderlocation"}

// State values mirror internal/qcommerce's columns, so the paper's
// Queries 1-4 run verbatim, plus the benchmark's own columns: stampNs and
// seq (the write's clock and record number, projected by subscriptions
// and served by the B-tree index) and vendor (≈0.1 % selectivity for the
// hash index).
type (
	// OrderInfo is the state of the orderinfo operator.
	OrderInfo struct {
		CustomerLat    float64
		CustomerLon    float64
		VendorLat      float64
		VendorLon      float64
		VendorCategory string
		DeliveryZone   string
		Vendor         string
		StampNs        int64
		Seq            int64
	}
	// OrderState is the state of the orderstate operator.
	OrderState struct {
		OrderState    string
		LateTimestamp time.Time
		StampNs       int64
		Seq           int64
	}
	// RiderLocation is the state of the riderlocation operator.
	RiderLocation struct {
		Lat       float64
		Lon       float64
		UpdatedAt time.Time
		StampNs   int64
		Seq       int64
	}
)

func init() {
	// Persisted checkpoints ship these through wire's gob fallback.
	gob.Register(OrderInfo{})
	gob.Register(OrderState{})
	gob.Register(RiderLocation{})
}

// vendors is the cardinality of OrderInfo.Vendor.
const vendors = 1000

// Fixed instants for LateTimestamp: Query 1 compares it with
// LOCALTIMESTAMP, so "late" is a year long past and "on time" one far
// ahead, whatever day the benchmark runs.
var (
	lateTime   = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	onTime     = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	riderEpoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
)

// draw is one pool entry: the table in the top bits, the key below.
type draw uint32

func mkDraw(k kind, key int) draw { return draw(uint32(k)<<28 | uint32(key)) }
func (d draw) kind() kind         { return kind(d >> 28) }
func (d draw) key() int           { return int(d & (1<<28 - 1)) }

// gen holds a run's generated inputs and, as records are emitted, the
// expected final state the verifier compares the engine against.
type gen struct {
	seed    int64
	orders  int
	riders  int
	pool    []draw
	keys    [nKinds][]partition.Key // pre-boxed key strings per table
	keyStrs [nKinds][]string

	// Written by the single source goroutine, read after the drain.
	lastSeq [nKinds][]int64 // record number of the last write per key
	statusN []int32         // status events seen per order
}

// poolSize is how many draws a run cycles through: larger than any hot
// set, small enough to generate in a fraction of set-up.
const poolSize = 1 << 19

func newGen(seed int64, orders, riders int) *gen {
	g := &gen{seed: seed, orders: orders, riders: riders}
	rng := rand.New(rand.NewSource(seed))
	zo := rand.NewZipf(rng, 1.1, 1, uint64(orders-1))
	zr := rand.NewZipf(rng, 1.1, 1, uint64(riders-1))
	g.pool = make([]draw, poolSize)
	for i := range g.pool {
		// qcommerce's mix: one info, two status, one rider ping in four.
		switch rng.Intn(4) {
		case 0:
			g.pool[i] = mkDraw(kInfo, scatter(zo.Uint64(), orders))
		case 1, 2:
			g.pool[i] = mkDraw(kStatus, scatter(zo.Uint64(), orders))
		default:
			g.pool[i] = mkDraw(kRider, scatter(zr.Uint64(), riders))
		}
	}
	for k := kind(0); k < nKinds; k++ {
		n, name := orders, qcommerce.OrderKey
		if k == kRider {
			n, name = riders, qcommerce.RiderKey
		}
		g.keys[k] = make([]partition.Key, n)
		g.keyStrs[k] = make([]string, n)
		for i := 0; i < n; i++ {
			s := name(int64(i))
			g.keyStrs[k][i] = s
			g.keys[k][i] = s
		}
		g.lastSeq[k] = make([]int64, n)
	}
	g.statusN = make([]int32, orders)
	return g
}

// scatter maps a Zipf rank to a key index, so that the hot keys are not
// the first ones in key order: rank × a prime mod n, a bijection on [0,n)
// for every n the prime does not divide.
func scatter(rank uint64, n int) int {
	const stride = 7919
	if n%stride == 0 {
		return int(rank)
	}
	return int(rank * stride % uint64(n))
}

// preloadLen is the number of records that populate every key once:
// info and status for each order, one ping for each rider.
func (g *gen) preloadLen() int64 { return int64(2*g.orders + g.riders) }

// at returns the n-th record of the stream: the preload first, then the
// pool cycled for as long as the run lasts.
func (g *gen) at(n int64) draw {
	switch {
	case n < int64(g.orders):
		return mkDraw(kInfo, int(n))
	case n < int64(2*g.orders):
		return mkDraw(kStatus, int(n)-g.orders)
	case n < g.preloadLen():
		return mkDraw(kRider, int(n)-2*g.orders)
	}
	return g.pool[(n-g.preloadLen())%int64(len(g.pool))]
}

// note records that record seq wrote d's key (source goroutine only).
func (g *gen) note(d draw, seq int64) {
	g.lastSeq[d.kind()][d.key()] = seq
	if d.kind() == kStatus {
		g.statusN[d.key()]++
	}
}

// info is the orderinfo value of order i written by record seq. All but
// the two trailing columns are static per order, as in qcommerce.
func info(i int, stampNs, seq int64) OrderInfo {
	o := int64(i)
	return OrderInfo{
		CustomerLat:    52.0 + float64(o%97)/100,
		CustomerLon:    4.3 + float64(o%89)/100,
		VendorLat:      52.0 + float64(o%83)/100,
		VendorLon:      4.3 + float64(o%79)/100,
		VendorCategory: qcommerce.Categories[i%len(qcommerce.Categories)],
		DeliveryZone:   qcommerce.Zones[i%len(qcommerce.Zones)],
		Vendor:         vendorName(i % vendors),
		StampNs:        stampNs,
		Seq:            seq,
	}
}

func vendorName(v int) string { return fmt.Sprintf("vendor-%d", v) }

// statusStep is the lifecycle position of order i after n status events:
// every event advances the order one state, starting from a phase derived
// from its id so the population spreads over all states.
func statusStep(i int, n int32) int {
	return (i + int(n)) % len(qcommerce.OrderStates)
}

// isLate reports whether order i carries a LateTimestamp in the past: a
// quarter of the orders (qcommerce's default LateFraction), chosen
// independently of the lifecycle phase, which follows i mod 8.
func isLate(i int) bool { return (i/8)%4 == 0 }

func lateStamp(i int) time.Time {
	if isLate(i) {
		return lateTime
	}
	return onTime
}

// rider is the riderlocation value of rider i written by record seq.
func rider(i int, stampNs, seq int64) RiderLocation {
	return RiderLocation{
		Lat:       52.0 + float64(i%100)/1000,
		Lon:       4.3 + float64(seq%100)/1000,
		UpdatedAt: riderEpoch.Add(time.Duration(seq) * time.Millisecond),
		StampNs:   stampNs,
		Seq:       seq,
	}
}
