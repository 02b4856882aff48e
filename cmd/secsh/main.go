// Command secsh is an interactive shell over a secext world: create
// principals, switch identities, touch files, message endpoints, spawn
// and kill threads, and inspect ACLs, classes, and the audit trail —
// every command mediated by the reference monitor, every denial
// explained.
//
// Usage:
//
//	secsh [-levels lo,mid,hi] [-categories a,b]
//
// then type `help`. secsh reads commands from stdin, so it is
// scriptable:
//
//	printf 'adduser alice organization:{dept-1}\nlogin alice\nls /\n' | secsh
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"secext"
	"secext/internal/names"
)

type shell struct {
	w   *secext.World
	ctx *secext.Context // current subject; nil until login
	out *bufio.Writer
}

func main() {
	levels := flag.String("levels", "others,organization,local",
		"comma-separated trust levels, lowest first")
	categories := flag.String("categories", "dept-1,dept-2",
		"comma-separated categories")
	flag.Parse()

	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     strings.Split(*levels, ","),
		Categories: splitOrNil(*categories),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "secsh:", err)
		os.Exit(1)
	}
	sh := &shell{w: w, out: bufio.NewWriter(os.Stdout)}
	defer sh.out.Flush()

	fmt.Fprintln(sh.out, "secext shell — type 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	for {
		sh.prompt()
		sh.out.Flush()
		if !sc.Scan() {
			fmt.Fprintln(sh.out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		sh.exec(line)
	}
}

func splitOrNil(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func (s *shell) prompt() {
	who := "-"
	if s.ctx != nil {
		who = s.ctx.SubjectName()
	}
	fmt.Fprintf(s.out, "[%s]$ ", who)
}

func (s *shell) printf(format string, args ...any) {
	fmt.Fprintf(s.out, format+"\n", args...)
}

func (s *shell) fail(err error) {
	if secext.IsDenied(err) {
		s.printf("DENIED: %v", err)
		return
	}
	s.printf("error: %v", err)
}

// need returns the current context or complains.
func (s *shell) need() *secext.Context {
	if s.ctx == nil {
		s.printf("no subject: use 'login <principal>' (after 'adduser')")
	}
	return s.ctx
}

func (s *shell) exec(line string) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help()
	case "adduser":
		if len(args) != 2 {
			s.printf("usage: adduser <name> <class-label>")
			return
		}
		if _, err := s.w.Sys.AddPrincipal(args[0], args[1]); err != nil {
			s.fail(err)
			return
		}
		s.printf("principal %s at %s", args[0], args[1])
	case "login":
		if len(args) != 1 {
			s.printf("usage: login <principal>")
			return
		}
		ctx, err := s.w.Sys.NewContext(args[0])
		if err != nil {
			s.fail(err)
			return
		}
		s.ctx = ctx
		s.printf("now %s", ctx)
	case "whoami":
		if ctx := s.need(); ctx != nil {
			s.printf("%s", ctx)
		}
	case "ls":
		path := "/"
		if len(args) > 0 {
			path = args[0]
		}
		if ctx := s.need(); ctx != nil {
			entries, err := s.w.Sys.List(ctx, path)
			if err != nil {
				s.fail(err)
				return
			}
			for _, e := range entries {
				s.printf("%s", e)
			}
		}
	case "create", "read", "rm", "stat":
		s.fileOp(cmd, args)
	case "write", "append":
		if len(args) < 2 {
			s.printf("usage: %s <path> <text>", cmd)
			return
		}
		if ctx := s.need(); ctx != nil {
			req := secext.FileRequest{Path: args[0], Data: []byte(strings.Join(args[1:], " "))}
			if _, err := s.w.Sys.Call(ctx, "/svc/fs/"+cmd, req); err != nil {
				s.fail(err)
				return
			}
			s.printf("ok")
		}
	case "call":
		if len(args) != 1 {
			s.printf("usage: call <service-path>")
			return
		}
		if ctx := s.need(); ctx != nil {
			out, err := s.w.Sys.Call(ctx, args[0], nil)
			if err != nil {
				s.fail(err)
				return
			}
			s.printf("-> %v", out)
		}
	case "spawn":
		if len(args) != 1 {
			s.printf("usage: spawn <name>")
			return
		}
		if ctx := s.need(); ctx != nil {
			out, err := s.w.Sys.Call(ctx, "/svc/thread/spawn",
				secext.ThreadSpawnRequest{Name: args[0]})
			if err != nil {
				s.fail(err)
				return
			}
			s.printf("thread %v", out)
		}
	case "kill":
		if len(args) != 1 {
			s.printf("usage: kill <id>")
			return
		}
		id, err := strconv.Atoi(args[0])
		if err != nil {
			s.printf("bad id %q", args[0])
			return
		}
		if ctx := s.need(); ctx != nil {
			if _, err := s.w.Sys.Call(ctx, "/svc/thread/kill",
				secext.ThreadKillRequest{ID: id}); err != nil {
				s.fail(err)
				return
			}
			s.printf("killed %d", id)
		}
	case "threads":
		if ctx := s.need(); ctx != nil {
			out, err := s.w.Sys.Call(ctx, "/svc/thread/list", nil)
			if err != nil {
				s.fail(err)
				return
			}
			s.printf("%v", out)
		}
	case "open", "send", "recv":
		s.netOp(cmd, args)
	case "journal":
		s.journalOp(args)
	case "acl":
		if len(args) != 1 {
			s.printf("usage: acl <path>")
			return
		}
		if ctx := s.need(); ctx != nil {
			a, err := s.w.Sys.GetACL(ctx, args[0])
			if err != nil {
				s.fail(err)
				return
			}
			s.printf("%s", a)
		}
	case "setacl":
		if len(args) < 2 {
			s.printf("usage: setacl <path> <entry;entry...>")
			return
		}
		a, err := secext.ParseACL(strings.Join(args[1:], " "))
		if err != nil {
			s.fail(err)
			return
		}
		if ctx := s.need(); ctx != nil {
			if _, err := s.w.Sys.Apply(ctx, names.SetACL(args[0], a)); err != nil {
				s.fail(err)
				return
			}
			s.printf("ok")
		}
	case "setclass":
		if len(args) != 2 {
			s.printf("usage: setclass <path> <label>")
			return
		}
		if ctx := s.need(); ctx != nil {
			class, err := s.w.Sys.ParseClass(args[1])
			if err != nil {
				s.fail(err)
				return
			}
			if _, err := s.w.Sys.Apply(ctx, names.SetClass(args[0], class)); err != nil {
				s.fail(err)
				return
			}
			s.printf("ok")
		}
	case "audit":
		n := 10
		if len(args) > 0 {
			if v, err := strconv.Atoi(args[0]); err == nil {
				n = v
			}
		}
		for _, e := range s.w.Sys.Audit().Recent(n) {
			s.printf("%s", e)
		}
	default:
		s.printf("unknown command %q — try 'help'", cmd)
	}
}

func (s *shell) fileOp(cmd string, args []string) {
	if len(args) != 1 {
		s.printf("usage: %s <path>", cmd)
		return
	}
	ctx := s.need()
	if ctx == nil {
		return
	}
	req := secext.FileRequest{Path: args[0]}
	svc := map[string]string{"create": "create", "read": "read", "rm": "remove", "stat": "stat"}[cmd]
	out, err := s.w.Sys.Call(ctx, "/svc/fs/"+svc, req)
	if err != nil {
		s.fail(err)
		return
	}
	switch v := out.(type) {
	case []byte:
		s.printf("%s", v)
	case nil:
		s.printf("ok")
	default:
		s.printf("%+v", v)
	}
}

func (s *shell) netOp(cmd string, args []string) {
	ctx := s.need()
	if ctx == nil {
		return
	}
	switch cmd {
	case "open":
		if len(args) != 1 {
			s.printf("usage: open <endpoint>")
			return
		}
		if _, err := s.w.Sys.Call(ctx, "/svc/net/open", secext.NetOpenRequest{Name: args[0]}); err != nil {
			s.fail(err)
			return
		}
		s.printf("endpoint %s open", args[0])
	case "send":
		if len(args) < 2 {
			s.printf("usage: send <endpoint> <text>")
			return
		}
		req := secext.NetSendRequest{Name: args[0], Data: []byte(strings.Join(args[1:], " "))}
		if _, err := s.w.Sys.Call(ctx, "/svc/net/send", req); err != nil {
			s.fail(err)
			return
		}
		s.printf("sent")
	case "recv":
		if len(args) != 1 {
			s.printf("usage: recv <endpoint>")
			return
		}
		out, err := s.w.Sys.Call(ctx, "/svc/net/recv", secext.NetRecvRequest{Name: args[0]})
		if err != nil {
			s.fail(err)
			return
		}
		m := out.(secext.NetMessage)
		s.printf("from %s (%s): %s", m.From, m.FromClass, m.Data)
	}
}

func (s *shell) journalOp(args []string) {
	ctx := s.need()
	if ctx == nil {
		return
	}
	if len(args) == 0 {
		s.printf("usage: journal <append <text> | read>")
		return
	}
	switch args[0] {
	case "append":
		if _, err := s.w.Sys.Call(ctx, "/svc/log/append", strings.Join(args[1:], " ")); err != nil {
			s.fail(err)
			return
		}
		s.printf("ok")
	case "read":
		out, err := s.w.Sys.Call(ctx, "/svc/log/read", nil)
		if err != nil {
			s.fail(err)
			return
		}
		for _, e := range out.([]secext.JournalEntry) {
			s.printf("%s (%s): %s", e.Subject, e.Class, e.Line)
		}
	default:
		s.printf("usage: journal <append <text> | read>")
	}
}

func (s *shell) help() {
	s.printf(`commands:
  adduser <name> <class>     register a principal (e.g. organization:{dept-1})
  login <name>               become that principal
  whoami                     current subject and class
  ls [path]                  list a name-space node
  create|read|rm|stat <path> file operations via /svc/fs/*
  write|append <path> <text> file writes (append is the report-up channel)
  call <service>             invoke a service with no argument
  spawn <name> | kill <id> | threads     thread service
  open|send|recv <endpoint> [text]       message service
  journal append <text> | journal read   system journal
  acl <path> | setacl <path> <entries>   discretionary state
  setclass <path> <label>                relabel (administrate)
  audit [n]                  last n audit events
  quit`)
}
