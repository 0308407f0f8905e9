package sel4

import (
	"testing"
	"time"

	"mkbas/internal/machine"
)

// BenchmarkCapLookupDenied measures the cost an attacker pays per brute-
// force probe (the E5 inner loop).
func BenchmarkCapLookupDenied(b *testing.B) {
	m := machine.New(machine.Config{})
	k := NewKernel(m, Config{})
	defer m.Shutdown()
	probes := 0
	th := k.CreateThread("prober", 7, func(api *API) {
		for {
			if err := api.NBSend(200, Msg{}); err == nil {
				return
			}
			probes++
		}
	})
	if err := k.Start(th); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	target := probes + b.N
	for probes < target {
		m.Run(50 * time.Microsecond)
	}
	b.StopTimer()
	if m.Obs().Metrics().Counter("sel4_cap_faults_total").Value() < int64(b.N) {
		b.Fatal("probes not counted")
	}
}

func BenchmarkSignalWait(b *testing.B) {
	m := machine.New(machine.Config{})
	k := NewKernel(m, Config{})
	defer m.Shutdown()
	n := k.CreateNotification("bench")
	rounds := 0
	waiter := k.CreateThread("waiter", 7, func(api *API) {
		for {
			if _, err := api.Wait(1); err != nil {
				return
			}
			rounds++
		}
	})
	signaler := k.CreateThread("signaler", 7, func(api *API) {
		for {
			if err := api.Signal(1); err != nil {
				return
			}
		}
	})
	if err := k.InstallCap(waiter, 1, NotificationCap(n, CapRead, 0)); err != nil {
		b.Fatal(err)
	}
	if err := k.InstallCap(signaler, 1, NotificationCap(n, CapWrite, 1)); err != nil {
		b.Fatal(err)
	}
	if err := k.Start(waiter); err != nil {
		b.Fatal(err)
	}
	if err := k.Start(signaler); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	target := rounds + b.N
	for rounds < target {
		m.Run(50 * time.Microsecond)
	}
}
