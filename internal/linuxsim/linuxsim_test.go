package linuxsim

import (
	"errors"
	"testing"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/plant"
)

func newBoard(t *testing.T) (*machine.Machine, *Kernel) {
	t.Helper()
	m := machine.New(machine.Config{})
	k := Boot(m, Config{})
	t.Cleanup(m.Shutdown)
	return m, k
}

func TestMQSendReceiveSameUID(t *testing.T) {
	m, k := newBoard(t)
	var got MQMsg
	k.RegisterImage(Image{Name: "producer", UID: 1000, Priority: 7, Body: func(api *API) {
		fd, err := api.MQOpen("/q", MQOpenFlags{Create: true, Write: true, Mode: 0o600})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := api.MQSend(fd, []byte("data"), 3); err != nil {
			t.Errorf("send: %v", err)
		}
	}})
	k.RegisterImage(Image{Name: "consumer", UID: 1000, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		fd, err := api.MQOpen("/q", MQOpenFlags{Read: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		got, err = api.MQReceive(fd)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
	}})
	if _, err := k.SpawnImage("producer"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnImage("consumer"); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	if string(got.Data) != "data" || got.Prio != 3 {
		t.Fatalf("got %q prio %d", got.Data, got.Prio)
	}
}

func TestMQPriorityOrdering(t *testing.T) {
	m, k := newBoard(t)
	var order []string
	k.RegisterImage(Image{Name: "p", UID: 1, Priority: 7, Body: func(api *API) {
		fd, _ := api.MQOpen("/q", MQOpenFlags{Create: true, Read: true, Write: true, Mode: 0o600})
		api.MQSend(fd, []byte("low1"), 1)
		api.MQSend(fd, []byte("high"), 9)
		api.MQSend(fd, []byte("low2"), 1)
		for i := 0; i < 3; i++ {
			msg, err := api.MQReceive(fd)
			if err == nil {
				order = append(order, string(msg.Data))
			}
		}
	}})
	k.SpawnImage("p")
	m.Run(time.Second)
	want := []string{"high", "low1", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDACDeniesOtherUser(t *testing.T) {
	m, k := newBoard(t)
	var openErr error
	k.RegisterImage(Image{Name: "owner", UID: 1000, Priority: 7, Body: func(api *API) {
		if _, err := api.MQOpen("/private", MQOpenFlags{Create: true, Read: true, Write: true, Mode: 0o600}); err != nil {
			t.Errorf("owner open: %v", err)
		}
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "outsider", UID: 2000, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		_, openErr = api.MQOpen("/private", MQOpenFlags{Write: true})
	}})
	k.SpawnImage("owner")
	k.SpawnImage("outsider")
	m.Run(time.Second)
	if !errors.Is(openErr, ErrPerm) {
		t.Fatalf("outsider err = %v, want ErrPerm", openErr)
	}
	if k.Stats().DACDenied == 0 {
		t.Fatal("DAC denial not counted")
	}
}

func TestSameUIDCanSpoofAnyQueue(t *testing.T) {
	// The paper's first Linux attack: all five processes share one user
	// account, so the web process can write every queue.
	m, k := newBoard(t)
	var spoofed MQMsg
	k.RegisterImage(Image{Name: "sensor-owner", UID: 1000, Priority: 7, Body: func(api *API) {
		fd, _ := api.MQOpen("/sensor-data", MQOpenFlags{Create: true, Read: true, Mode: 0o600})
		msg, err := api.MQReceive(fd)
		if err == nil {
			spoofed = msg
		}
	}})
	k.RegisterImage(Image{Name: "web-attacker", UID: 1000, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		fd, err := api.MQOpen("/sensor-data", MQOpenFlags{Write: true})
		if err != nil {
			t.Errorf("attacker open failed: %v", err)
			return
		}
		api.MQSend(fd, []byte("fake-temp=99"), 0)
	}})
	k.SpawnImage("sensor-owner")
	k.SpawnImage("web-attacker")
	m.Run(time.Second)
	if string(spoofed.Data) != "fake-temp=99" {
		t.Fatalf("spoof failed: %q (same-uid DAC should allow it)", spoofed.Data)
	}
}

func TestRootBypassesDAC(t *testing.T) {
	m, k := newBoard(t)
	var openErr error
	k.RegisterImage(Image{Name: "owner", UID: 1000, Priority: 7, Body: func(api *API) {
		api.MQOpen("/locked", MQOpenFlags{Create: true, Read: true, Write: true, Mode: 0o600})
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "rootproc", UID: 0, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		_, openErr = api.MQOpen("/locked", MQOpenFlags{Read: true, Write: true})
	}})
	k.SpawnImage("owner")
	k.SpawnImage("rootproc")
	m.Run(time.Second)
	if openErr != nil {
		t.Fatalf("root open err = %v, want success", openErr)
	}
}

func TestKillSameUIDAndRoot(t *testing.T) {
	m, k := newBoard(t)
	k.RegisterImage(Image{Name: "victim-same", UID: 1000, Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "victim-other", UID: 3000, Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	var killSame, killOther error
	var samePID, otherPID int
	k.RegisterImage(Image{Name: "killer", UID: 1000, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		killSame = api.Kill(samePID, SIGKILL)
		killOther = api.Kill(otherPID, SIGKILL)
	}})
	var err error
	samePID, err = k.SpawnImage("victim-same")
	if err != nil {
		t.Fatal(err)
	}
	otherPID, err = k.SpawnImage("victim-other")
	if err != nil {
		t.Fatal(err)
	}
	k.SpawnImage("killer")
	m.Run(time.Second)
	if killSame != nil {
		t.Fatalf("same-uid kill err = %v, want success", killSame)
	}
	if !errors.Is(killOther, ErrPerm) {
		t.Fatalf("cross-uid kill err = %v, want ErrPerm", killOther)
	}
	if k.Alive(samePID) {
		t.Fatal("same-uid victim survived")
	}
	if !k.Alive(otherPID) {
		t.Fatal("cross-uid victim died despite EPERM")
	}
}

func TestGrantRootThenKillAnyone(t *testing.T) {
	m, k := newBoard(t)
	k.RegisterImage(Image{Name: "controller", UID: 500, Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	var killErr error
	var controllerPID int
	k.RegisterImage(Image{Name: "web", UID: 1000, Priority: 8, Body: func(api *API) {
		api.Sleep(20 * time.Millisecond) // escalation happens at t=10ms
		killErr = api.Kill(controllerPID, SIGKILL)
	}})
	var err error
	controllerPID, err = k.SpawnImage("controller")
	if err != nil {
		t.Fatal(err)
	}
	webPID, err := k.SpawnImage("web")
	if err != nil {
		t.Fatal(err)
	}
	m.Clock().After(10*time.Millisecond, func() {
		if err := k.GrantRoot(webPID); err != nil {
			t.Errorf("GrantRoot: %v", err)
		}
	})
	m.Run(time.Second)
	if killErr != nil {
		t.Fatalf("root kill err = %v, want success", killErr)
	}
	if k.Alive(controllerPID) {
		t.Fatal("controller survived root kill")
	}
}

func TestMQBlockingReceiveAndSend(t *testing.T) {
	m, k := newBoard(t)
	var got []string
	k.RegisterImage(Image{Name: "rx", UID: 1, Priority: 7, Body: func(api *API) {
		fd, _ := api.MQOpen("/q", MQOpenFlags{Create: true, Read: true, Mode: 0o600, MaxMsgs: 1})
		for i := 0; i < 3; i++ {
			msg, err := api.MQReceive(fd) // blocks until tx sends
			if err == nil {
				got = append(got, string(msg.Data))
			}
		}
	}})
	k.RegisterImage(Image{Name: "tx", UID: 1, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		fd, _ := api.MQOpen("/q", MQOpenFlags{Write: true})
		for _, s := range []string{"a", "b", "c"} {
			if err := api.MQSend(fd, []byte(s), 0); err != nil {
				t.Errorf("send %s: %v", s, err)
			}
		}
	}})
	k.SpawnImage("rx")
	k.SpawnImage("tx")
	m.Run(time.Second)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestMQSendBlocksWhenFull(t *testing.T) {
	m, k := newBoard(t)
	var nbErr error
	sendCompleted := false
	k.RegisterImage(Image{Name: "tx", UID: 1, Priority: 7, Body: func(api *API) {
		fd, _ := api.MQOpen("/q", MQOpenFlags{Create: true, Read: true, Write: true, Mode: 0o600, MaxMsgs: 1})
		api.MQSend(fd, []byte("fill"), 0)
		nbfd, _ := api.MQOpen("/q", MQOpenFlags{Write: true, NonBlock: true})
		nbErr = api.MQSend(nbfd, []byte("nb"), 0) // EAGAIN
		api.MQSend(fd, []byte("second"), 0)       // blocks until reader drains
		sendCompleted = true
	}})
	k.RegisterImage(Image{Name: "rx", UID: 1, Priority: 8, Body: func(api *API) {
		api.Sleep(10 * time.Millisecond)
		fd, _ := api.MQOpen("/q", MQOpenFlags{Read: true})
		api.MQReceive(fd)
		api.MQReceive(fd)
	}})
	k.SpawnImage("tx")
	k.SpawnImage("rx")
	m.Run(time.Second)
	if !errors.Is(nbErr, ErrAgain) {
		t.Fatalf("nonblocking send err = %v, want ErrAgain", nbErr)
	}
	if !sendCompleted {
		t.Fatal("blocked sender never completed")
	}
}

func TestMQUnlinkPermissionsAndWakeups(t *testing.T) {
	m, k := newBoard(t)
	var outsiderErr, readerErr error
	k.RegisterImage(Image{Name: "owner", UID: 1000, Priority: 7, Body: func(api *API) {
		fd, _ := api.MQOpen("/q", MQOpenFlags{Create: true, Read: true, Mode: 0o644})
		_, readerErr = api.MQReceive(fd) // blocks; woken by unlink
	}})
	k.RegisterImage(Image{Name: "outsider", UID: 2000, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		outsiderErr = api.MQUnlink("/q")
	}})
	k.RegisterImage(Image{Name: "owner2", UID: 1000, Priority: 8, Body: func(api *API) {
		api.Sleep(2 * time.Millisecond)
		if err := api.MQUnlink("/q"); err != nil {
			t.Errorf("owner unlink: %v", err)
		}
	}})
	k.SpawnImage("owner")
	k.SpawnImage("outsider")
	k.SpawnImage("owner2")
	m.Run(time.Second)
	if !errors.Is(outsiderErr, ErrPerm) {
		t.Fatalf("outsider unlink err = %v, want ErrPerm", outsiderErr)
	}
	if !errors.Is(readerErr, ErrNoEnt) {
		t.Fatalf("blocked reader err = %v, want ErrNoEnt after unlink", readerErr)
	}
}

func TestDeviceFileDAC(t *testing.T) {
	m := machine.New(machine.Config{})
	plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
	k := Boot(m, Config{})
	t.Cleanup(m.Shutdown)
	k.RegisterDeviceFile(plant.DevHeater, 500, 500, 0o600)

	var ownErr, otherErr, rootErr error
	k.RegisterImage(Image{Name: "driver", UID: 500, Priority: 7, Body: func(api *API) {
		ownErr = api.DevWrite(plant.DevHeater, plant.RegActuate, 1)
	}})
	k.RegisterImage(Image{Name: "web", UID: 1000, Priority: 7, Body: func(api *API) {
		otherErr = api.DevWrite(plant.DevHeater, plant.RegActuate, 1)
	}})
	k.RegisterImage(Image{Name: "rootweb", UID: 0, Priority: 7, Body: func(api *API) {
		rootErr = api.DevWrite(plant.DevHeater, plant.RegActuate, 0)
	}})
	k.SpawnImage("driver")
	k.SpawnImage("web")
	k.SpawnImage("rootweb")
	m.Run(time.Second)
	if ownErr != nil {
		t.Fatalf("owner write: %v", ownErr)
	}
	if !errors.Is(otherErr, ErrPerm) {
		t.Fatalf("other write err = %v, want ErrPerm", otherErr)
	}
	if rootErr != nil {
		t.Fatalf("root write: %v (root must bypass DAC)", rootErr)
	}
}

func TestForkInheritsCredentials(t *testing.T) {
	m, k := newBoard(t)
	var childUID int
	k.RegisterImage(Image{Name: "child", UID: 9999, Priority: 7, Body: func(api *API) {
		childUID = api.GetUID()
	}})
	k.RegisterImage(Image{Name: "parent", UID: 42, Priority: 7, Body: func(api *API) {
		if _, err := api.Fork("child"); err != nil {
			t.Errorf("fork: %v", err)
		}
	}})
	k.SpawnImage("parent")
	m.Run(time.Second)
	if childUID != 42 {
		t.Fatalf("child uid = %d, want inherited 42 (image UID must be ignored)", childUID)
	}
}

func TestForkBombIsUnbounded(t *testing.T) {
	// Linux has no fork quota surface: 100 forks all succeed. (Contrast
	// with TestPMForkQuotaStopsForkBomb in internal/minix.)
	m, k := newBoard(t)
	granted := 0
	k.RegisterImage(Image{Name: "drone", UID: 1000, Priority: 9, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "bomber", UID: 1000, Priority: 7, Body: func(api *API) {
		for i := 0; i < 100; i++ {
			if _, err := api.Fork("drone"); err == nil {
				granted++
			}
		}
	}})
	k.SpawnImage("bomber")
	m.Run(time.Second)
	if granted != 100 {
		t.Fatalf("granted = %d, want 100 (no quota on Linux)", granted)
	}
}

func TestExclusiveCreate(t *testing.T) {
	m, k := newBoard(t)
	var exclErr error
	k.RegisterImage(Image{Name: "p", UID: 1, Priority: 7, Body: func(api *API) {
		if _, err := api.MQOpen("/q", MQOpenFlags{Create: true, Excl: true, Read: true, Mode: 0o600}); err != nil {
			t.Errorf("first excl create: %v", err)
		}
		_, exclErr = api.MQOpen("/q", MQOpenFlags{Create: true, Excl: true, Read: true, Mode: 0o600})
	}})
	k.SpawnImage("p")
	m.Run(time.Second)
	if !errors.Is(exclErr, ErrExist) {
		t.Fatalf("second excl create err = %v, want ErrExist", exclErr)
	}
}

func TestOpenMissingQueueFails(t *testing.T) {
	m, k := newBoard(t)
	var err error
	k.RegisterImage(Image{Name: "p", UID: 1, Priority: 7, Body: func(api *API) {
		_, err = api.MQOpen("/ghost", MQOpenFlags{Read: true})
	}})
	k.SpawnImage("p")
	m.Run(time.Second)
	if !errors.Is(err, ErrNoEnt) {
		t.Fatalf("err = %v, want ErrNoEnt", err)
	}
}

func TestNonTerminatingSignalAbsorbed(t *testing.T) {
	m, k := newBoard(t)
	k.RegisterImage(Image{Name: "victim", UID: 1, Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	var killErr error
	var victimPID int
	k.RegisterImage(Image{Name: "sender", UID: 1, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		killErr = api.Kill(victimPID, 10) // SIGUSR1-ish
	}})
	var err error
	victimPID, err = k.SpawnImage("victim")
	if err != nil {
		t.Fatal(err)
	}
	k.SpawnImage("sender")
	m.Run(time.Second)
	if killErr != nil {
		t.Fatalf("signal err = %v", killErr)
	}
	if !k.Alive(victimPID) {
		t.Fatal("victim died from non-terminating signal")
	}
}

// TestStaleTimersNeverWake pins the token check behind the reused sleep and
// mq_timedreceive callbacks. A killed sleeper's pending timer must not wake
// the process spawned after it, and a timed receive answered early must not
// time out the next timed receive when its old deadline passes.
func TestStaleTimersNeverWake(t *testing.T) {
	m, k := newBoard(t)
	k.RegisterImage(Image{Name: "victim", UID: 1, Priority: 8, Body: func(api *API) {
		api.Sleep(time.Second)
		t.Error("killed sleeper woke")
	}})
	var heirWoke machine.Time
	k.RegisterImage(Image{Name: "heir", UID: 1, Priority: 8, Body: func(api *API) {
		api.Sleep(10 * time.Second)
		heirWoke = api.Now()
	}})
	var firstErr, secondErr error
	var secondAt machine.Time
	k.RegisterImage(Image{Name: "waiter", UID: 1, Priority: 8, Body: func(api *API) {
		fd, err := api.MQOpen("/q", MQOpenFlags{Create: true, Read: true, Mode: 0o600})
		if err != nil {
			t.Error(err)
			return
		}
		_, firstErr = api.MQReceiveTimeout(fd, time.Second)
		_, secondErr = api.MQReceiveTimeout(fd, 5*time.Second)
		secondAt = api.Now()
	}})
	k.RegisterImage(Image{Name: "poker", UID: 1, Priority: 8, Body: func(api *API) {
		api.Sleep(100 * time.Millisecond)
		fd, err := api.MQOpen("/q", MQOpenFlags{Write: true})
		if err != nil {
			t.Error(err)
			return
		}
		_ = api.MQSend(fd, []byte("poke"), 0)
	}})
	for _, name := range []string{"victim", "waiter", "poker"} {
		if _, err := k.SpawnImage(name); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(500 * time.Millisecond)
	if err := k.CrashProcess("victim"); err != nil {
		t.Fatal(err)
	}
	start := m.Clock().Now()
	if _, err := k.SpawnImage("heir"); err != nil {
		t.Fatal(err)
	}
	m.Run(20 * time.Second)

	if woke := heirWoke.Sub(start); woke < 10*time.Second || woke > 10*time.Second+time.Millisecond {
		t.Fatalf("heir woke %v after spawn, want its own 10s deadline", woke)
	}
	if firstErr != nil {
		t.Fatalf("first timed receive = %v, want the poke", firstErr)
	}
	if !errors.Is(secondErr, ErrTimeout) {
		t.Fatalf("second timed receive = %v, want ErrTimeout", secondErr)
	}
	if secondAt < machine.Time(5*time.Second) {
		t.Fatalf("second timed receive returned at %v, before its own 5s deadline", secondAt)
	}
}
