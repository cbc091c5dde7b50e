package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// child is one fresh benchmark process re-executed in a child mode
// (-child suite or -child serve). A fresh process per pass means no
// process-global cache — the shared-profiler LRU, the pooled simulation
// contexts, a server's scenario cache — carries from one pass to the
// next: every pass pays the cold cost a new CLI run or a newly started
// stashd pays.
//
// The parent talks to a child over its standard streams: the child
// prints "ready" (and its address, for a server) once set up, the
// parent writes commands to its stdin, and closing stdin tells it to
// finish. The child then prints one JSON result line and exits.
type child struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	out     *bufio.Scanner
	spawned time.Time
	waited  bool
}

// usage is what the kernel accounted to an exited child.
type usage struct {
	CPU     time.Duration // user + system
	MaxRSS  float64       // peak resident set, MB
	Elapsed time.Duration // spawn to exit
}

// spawn starts this binary again with args.
func spawn(args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	c.out.Buffer(make([]byte, 64*1024), 64<<20)
	c.spawned = now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start child: %w", err)
	}
	return c, nil
}

// line reads the child's next output line.
func (c *child) line() (string, error) {
	if c.out.Scan() {
		return c.out.Text(), nil
	}
	if err := c.out.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("child exited early")
}

// send writes one command line to the child.
func (c *child) send(cmd string) error {
	_, err := io.WriteString(c.stdin, cmd+"\n")
	return err
}

// finish closes the child's stdin, reads its result line (when
// withResult), waits for it to exit, and returns its resource usage.
func (c *child) finish(withResult bool) (string, usage, error) {
	_ = c.stdin.Close() // the close is the child's stop signal; it has no other failure to report
	var result string
	var rerr error
	if withResult {
		result, rerr = c.line()
	}
	// Drain anything left so the child never blocks on a full pipe.
	for c.out.Scan() {
	}
	err := c.cmd.Wait()
	c.waited = true
	end := now()
	u := usage{Elapsed: end.Sub(c.spawned)}
	if st := c.cmd.ProcessState; st != nil {
		u.CPU = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			u.MaxRSS = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
		}
	}
	if err != nil {
		return "", u, fmt.Errorf("child: %w", err)
	}
	return result, u, rerr
}

// kill stops a child that has not been waited for and waits for it.
// Every spawn is paired with a deferred kill, so no child outlives the
// benchmark on an error path.
func (c *child) kill() {
	if c == nil || c.waited {
		return
	}
	_ = c.cmd.Process.Kill() // fails only if the child already exited, which Wait then reaps
	_ = c.stdin.Close()
	for c.out.Scan() {
	}
	_ = c.cmd.Wait() // the child was killed; its exit status carries no information
	c.waited = true
}
