// CDN scenario: the paper's motivating deployment (§6) — a content
// delivery network replicating a product catalogue, where one of the
// outsourced slave servers has been compromised and returns inflated
// prices.
//
// The example shows both discovery paths of §3.5:
//
//   - immediate discovery: a client double-check catches the slave
//     red-handed, the master excludes it and reassigns the clients;
//
//   - delayed discovery: with double-checking off, a lie is accepted, but
//     the forwarded pledge convicts the slave at the auditor.
//
// Part 3 shards the catalogue across two independent master groups: the
// directory serves an owner-signed shard table, the client sends each
// write to the owning group, and a master asked for a key outside its
// range rejects it, so a client holding a stale table re-reads it and
// converges.
//
//	go run ./examples/cdn
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/query"
	"repro/internal/store"
)

func main() {
	fmt.Println("== part 1: immediate discovery (double-check p = 1) ==")
	immediate()
	fmt.Println()
	fmt.Println("== part 2: delayed discovery (double-check off, audit only) ==")
	delayed()
	fmt.Println()
	fmt.Println("== part 3: sharded catalogue (two master groups, routed by the directory) ==")
	sharded()
}

func immediate() {
	cfg := harness.DefaultScenario()
	cfg.Seed = 7
	cfg.NMasters = 2
	cfg.SlavesPerMaster = 2
	cfg.Params.DoubleCheckP = 1.0 // check everything for the demo
	cfg.Params.GreedyMinBurst = 1 << 30
	// slave-0 (assigned to our client's master) lies about every answer.
	cfg.SlaveBehaviors = map[int]core.Behavior{0: core.AlwaysLie{}}

	sc := harness.NewScenario(cfg)
	shopper := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := shopper.Setup(); err != nil {
			log.Fatalf("setup: %v", err)
		}
		fmt.Printf("shopper assigned to %s (compromised)\n", shopper.SlaveAddr())
		payload, err := shopper.Read(query.Get{Key: "catalog/00001"})
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		price, _, _ := query.GetResult(payload)
		fmt.Printf("price of catalog/00001 = %q (correct despite the liar)\n", price)
	})
	sc.Run(time.Minute)

	st := shopper.Stats()
	fmt.Printf("caught red-handed: %d, reports filed: %d, reassigned to %s\n",
		st.CaughtImmediate, st.ReportsFiled, shopper.SlaveAddr())
	fmt.Printf("lies accepted by the shopper: %d\n", st.LiesAccepted)
	fmt.Printf("directory lists the slave as excluded: %v\n",
		sc.Dir.IsExcluded(sc.Owner.Public, sc.Slaves[0].PublicKey()))
}

func delayed() {
	cfg := harness.DefaultScenario()
	cfg.Seed = 8
	cfg.NMasters = 2
	cfg.SlavesPerMaster = 2
	cfg.Params.DoubleCheckP = 0 // no spot checks: only the audit protects us
	cfg.SlaveBehaviors = map[int]core.Behavior{0: core.AlwaysLie{}}

	sc := harness.NewScenario(cfg)
	shopper := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := shopper.Setup(); err != nil {
			log.Fatalf("setup: %v", err)
		}
		payload, err := shopper.Read(query.Get{Key: "catalog/00001"})
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		_, _, decodeErr := query.GetResult(payload)
		fmt.Printf("shopper accepted a falsified answer (strict decode: %v) — and cannot tell yet\n", decodeErr)
		// The forwarded pledge is now with the auditor; wait for the
		// delayed discovery to run its course.
		sc.S.Sleep(10 * time.Second)
		// After the exclusion notice, the same read is honest.
		payload, err = shopper.Read(query.Get{Key: "catalog/00001"})
		if err != nil {
			log.Fatalf("read after reassignment: %v", err)
		}
		price, _, _ := query.GetResult(payload)
		fmt.Printf("after audit + reassignment the price reads %q\n", price)
	})
	sc.Run(2 * time.Minute)

	st := shopper.Stats()
	as := sc.Auditor.Stats()
	fmt.Printf("lies accepted: %d (the cost of the optimistic fast path)\n", st.LiesAccepted)
	fmt.Printf("audit mismatches: %d, reports sent: %d\n", as.Mismatches, as.ReportsSent)
	fmt.Printf("shopper reassignments: %d; slave excluded: %v\n",
		st.Reassignments, sc.Dir.IsExcluded(sc.Owner.Public, sc.Slaves[0].PublicKey()))
	fmt.Println("the signed pledge is evidence usable against the hosting contract (§3.5)")
}

func sharded() {
	cfg := harness.DefaultScenario()
	cfg.Seed = 9
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.Shards = 2 // two groups, each owning half the catalogue
	cfg.CatalogSize = 40

	sc := harness.NewScenario(cfg)
	editor := sc.AddClient(nil)

	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := editor.Setup(); err != nil {
			log.Fatalf("setup: %v", err)
		}
		for _, s := range sc.Table.Shards {
			fmt.Printf("directory shard table: %v\n", s)
		}
		// One price update in each half of the catalogue: the client
		// routes each to its owning group without being told which.
		for _, key := range []string{"catalog/00001", "catalog/00030"} {
			if _, err := editor.Write(store.Put{Key: key, Value: []byte("$19.99")}); err != nil {
				log.Fatalf("write %s: %v", key, err)
			}
		}
		sc.S.Sleep(cfg.Params.MaxLatency * 4)
		for _, key := range []string{"catalog/00001", "catalog/00030"} {
			payload, err := editor.Read(query.Get{Key: key})
			if err != nil {
				log.Fatalf("read %s: %v", key, err)
			}
			price, _, _ := query.GetResult(payload)
			fmt.Printf("%s = %q (served by the owning group's slave)\n", key, price)
		}
	})
	sc.Run(time.Minute)

	cs := editor.Stats()
	fmt.Printf("writes committed through the shard table: %d, redirects: %d\n",
		cs.WritesOK, cs.Redirects)
	fmt.Printf("each group ran its own ordered broadcast: %d masters total across %d shards\n",
		len(sc.Masters), len(sc.Groups))
}
