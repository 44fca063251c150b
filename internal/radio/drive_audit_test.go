package radio_test

// The index audit on whole-stack worlds: vehicular drives and a small
// city — driver, MAC, DHCP, TCP and mobility all transmitting — with
// every transmission's candidate sets checked against brute-force scans
// of all registered radios. The city adds the multi-client interactions
// (collisions, carrier sense between clients) a single drive cannot.

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/radio"
	"spider/internal/scenario"
)

func spiderConfig() core.Config {
	return core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
}

func TestIndexAuditAmherstDrive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed full drives are slow")
	}
	for _, seed := range []int64{1, 2, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := scenario.AmherstDrive(seed)
			rc := radio.Defaults()
			rc.DataRateKbps = 24_000
			rc.Loss = 0.08
			rc.EdgeStart = 0.55
			spec.Radio = rc
			world, mob := spec.Build()
			audited := radio.AuditIndex(t, world.Medium)
			client := world.AddClient(spiderConfig(), mob)
			world.Run(4 * time.Minute)
			if audited() < 1000 || client.Rec.TotalBytes() == 0 {
				t.Fatalf("drive audited %d transmissions and moved %d bytes; test is vacuous",
					audited(), client.Rec.TotalBytes())
			}
		})
	}
}

func TestIndexAuditCityGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("city worlds are slow")
	}
	spec := scenario.CityGrid(3, 120, 12)
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	spec.Radio = rc
	world, mobs := spec.Build()
	audited := radio.AuditIndex(t, world.Medium)
	for _, mob := range mobs {
		world.AddClient(spiderConfig(), mob)
	}
	world.Run(30 * time.Second)
	if audited() < 1000 {
		t.Fatalf("city audited %d transmissions; test is vacuous", audited())
	}
}
