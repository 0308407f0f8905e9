package vnet

import (
	"bytes"
	"errors"
	"testing"
)

func TestListenDialAccept(t *testing.T) {
	s := NewStack()
	l, err := s.Listen(8080)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	host, err := s.Dial(8080)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	board, err := s.Accept(l)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}

	if err := host.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
		t.Fatalf("host write: %v", err)
	}
	got, err := s.BoardRead(board, 0)
	if err != nil {
		t.Fatalf("board read: %v", err)
	}
	if !bytes.Contains(got, []byte("GET /")) {
		t.Fatalf("board read = %q", got)
	}

	if err := s.BoardWrite(board, []byte("200 OK")); err != nil {
		t.Fatalf("board write: %v", err)
	}
	if resp := host.ReadAll(); string(resp) != "200 OK" {
		t.Fatalf("host read = %q", resp)
	}
}

func TestDialWithoutListener(t *testing.T) {
	s := NewStack()
	if _, err := s.Dial(9); !errors.Is(err, ErrNoListener) {
		t.Fatalf("err = %v, want ErrNoListener", err)
	}
}

func TestDoubleListen(t *testing.T) {
	s := NewStack()
	if _, err := s.Listen(80); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := s.Listen(80); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
}

func TestAcceptWouldBlockAndWaiter(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	if _, err := s.Accept(l); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	fired := false
	s.WaitConn(l, func(token uint64) { fired = token == 7 }, 7)
	if fired {
		t.Fatal("waiter fired before connection")
	}
	if _, err := s.Dial(80); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if !fired {
		t.Fatal("waiter did not fire on dial")
	}
	if _, err := s.Accept(l); err != nil {
		t.Fatalf("Accept after waiter: %v", err)
	}
}

func TestWaitConnImmediateWhenPending(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	if _, err := s.Dial(80); err != nil {
		t.Fatal(err)
	}
	fired := false
	s.WaitConn(l, func(token uint64) { fired = token == 7 }, 7)
	if !fired {
		t.Fatal("waiter should fire immediately with pending backlog")
	}
}

func TestReadWaiter(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	host, _ := s.Dial(80)
	board, _ := s.Accept(l)

	if _, err := s.BoardRead(board, 0); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	fired := false
	s.WaitReadable(board, func(token uint64) { fired = token == 7 }, 7)
	if err := host.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("read waiter did not fire")
	}
	got, err := s.BoardRead(board, 0)
	if err != nil || string(got) != "x" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestReadMaxBytes(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	host, _ := s.Dial(80)
	board, _ := s.Accept(l)
	if err := host.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	got, err := s.BoardRead(board, 4)
	if err != nil || string(got) != "abcd" {
		t.Fatalf("read = %q, %v", got, err)
	}
	got, err = s.BoardRead(board, 4)
	if err != nil || string(got) != "ef" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestHostCloseGivesBoardEOF(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	host, _ := s.Dial(80)
	board, _ := s.Accept(l)
	host.Write([]byte("tail"))
	host.Close()
	got, err := s.BoardRead(board, 0)
	if err != nil || string(got) != "tail" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if _, err := s.BoardRead(board, 0); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed after EOF", err)
	}
}

func TestBoardCloseObservedByHost(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	host, _ := s.Dial(80)
	board, _ := s.Accept(l)
	s.BoardWrite(board, []byte("bye"))
	s.BoardClose(board)
	if got := host.ReadAll(); string(got) != "bye" {
		t.Fatalf("host read = %q", got)
	}
	if !host.Closed() {
		t.Fatal("host did not observe close")
	}
	if err := host.Write([]byte("x")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("write after close err = %v", err)
	}
}

func TestBacklogLimit(t *testing.T) {
	s := NewStack()
	if _, err := s.Listen(80); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < backlogMax; i++ {
		if _, err := s.Dial(80); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if _, err := s.Dial(80); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("err = %v, want ErrBacklogFull", err)
	}
}

func TestCloseListenerRefusesBacklog(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	host, _ := s.Dial(80)
	s.CloseListener(l)
	if err := host.Write([]byte("x")); err == nil {
		t.Fatal("write to refused connection succeeded")
	}
	// Port is free again.
	if _, err := s.Listen(80); err != nil {
		t.Fatalf("re-listen: %v", err)
	}
}

func TestBacklogDrainsAfterAccept(t *testing.T) {
	// The bus retries refused dials on fresh connections, so a listener that
	// was briefly saturated must become dialable again once the board accepts.
	s := NewStack()
	l, err := s.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < backlogMax; i++ {
		if _, err := s.Dial(80); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if _, err := s.Dial(80); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("saturated dial err = %v, want ErrBacklogFull", err)
	}
	if _, err := s.Accept(l); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dial(80); err != nil {
		t.Fatalf("dial after drain: %v", err)
	}
}
