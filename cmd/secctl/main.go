// Command secctl loads a secext policy file and answers questions about
// the protection state it defines — the administrator's window into the
// single name space the paper argues for.
//
// Usage:
//
//	secctl check  -policy p.pol -as alice -path /svc/fs/read -modes execute
//	secctl matrix -policy p.pol -modes read [-paths /a,/b]
//	secctl tree   -policy p.pol
//	secctl fmt    -policy p.pol
//	secctl stats   -http 127.0.0.1:7778
//	secctl trace   -http 127.0.0.1:7778 [-n 10] [-denied]
//	secctl explain -http 127.0.0.1:7778 -as alice -path /fs/x -modes read
//	secctl epochs  -http 127.0.0.1:7778 [-n 10]
//	secctl epochs  -peer 127.0.0.1:7779 -token <tok> [-n 10]
//	secctl replicas -http 127.0.0.1:7778
//
// check prints ALLOW/DENY with the monitor's reason; matrix prints the
// decision for every principal against the given (or all leaf) paths;
// tree dumps the name space with per-node kind, class, and ACL; fmt
// re-emits the policy in canonical form. stats, trace, explain, and
// epochs talk to a running secextd's telemetry endpoint (-http on the
// daemon): stats summarizes the live counters, trace prints recent
// decision traces, explain prints the provenance verdict tree for one
// decision (the exact ACL entry, guard, and MAC comparison that decided
// it), and epochs prints the epoch-transition journal. replicas prints
// a replicating primary's per-peer status (lag, transfer volume).
// epochs -peer talks the line protocol directly instead of HTTP — the
// way to read a replica mediator's journal and verify it applied the
// primary's epochs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"

	"secext"
	"secext/internal/names"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "check":
		runCheck(args)
	case "matrix":
		runMatrix(args)
	case "tree":
		runTree(args)
	case "fmt":
		runFmt(args)
	case "snapshot":
		runSnapshot(args)
	case "stats":
		runStats(args)
	case "trace":
		runTrace(args)
	case "explain":
		runExplain(args)
	case "epochs":
		runEpochs(args)
	case "replicas":
		runReplicas(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: secctl <check|matrix|tree|fmt|snapshot> -policy <file> [flags]")
	fmt.Fprintln(os.Stderr, "       secctl <stats|trace|explain|epochs|replicas> -http <addr> [flags]")
	fmt.Fprintln(os.Stderr, "       secctl epochs -peer <addr> -token <tok> [-n 10]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secctl:", err)
	os.Exit(1)
}

func loadPolicy(path string) (*secext.Policy, *secext.System) {
	if path == "" {
		fatal(fmt.Errorf("-policy is required"))
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	p, err := secext.ParsePolicy(f)
	if err != nil {
		fatal(err)
	}
	sys, err := p.Build(secext.Options{})
	if err != nil {
		fatal(err)
	}
	return p, sys
}

func runCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	policy := fs.String("policy", "", "policy file")
	as := fs.String("as", "", "principal to check as")
	path := fs.String("path", "", "object path")
	modesArg := fs.String("modes", "read", "comma-separated access modes")
	_ = fs.Parse(args)
	_, sys := loadPolicy(*policy)
	modes, err := secext.ParseMode(*modesArg)
	if err != nil {
		fatal(err)
	}
	ctx, err := sys.NewContext(*as)
	if err != nil {
		fatal(err)
	}
	if _, err := sys.CheckData(ctx, *path, modes); err != nil {
		fmt.Printf("DENY  %s %s on %s\n  reason: %v\n", *as, modes, *path, err)
		// Show the discretionary working when the target exists.
		if a, aerr := sys.Names().ACLOf(*path); aerr == nil {
			fmt.Printf("  acl working:\n")
			for _, line := range strings.Split(strings.TrimSpace(a.Explain(ctx, modes).String()), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
		os.Exit(1)
	}
	fmt.Printf("ALLOW %s %s on %s (class %s)\n", *as, modes, *path, ctx.Class())
}

func runMatrix(args []string) {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	policy := fs.String("policy", "", "policy file")
	modesArg := fs.String("modes", "read", "comma-separated access modes")
	pathsArg := fs.String("paths", "", "comma-separated object paths (default: all leaves)")
	_ = fs.Parse(args)
	p, sys := loadPolicy(*policy)
	modes, err := secext.ParseMode(*modesArg)
	if err != nil {
		fatal(err)
	}
	var paths []string
	if *pathsArg != "" {
		paths = strings.Split(*pathsArg, ",")
	} else {
		sys.Names().Walk(func(path string, n *secext.Node) {
			if n.Kind().Leaf() {
				paths = append(paths, path)
			}
		})
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("no paths to check"))
	}
	fmt.Printf("access matrix for modes %q\n\n%-14s", modes, "principal")
	for _, path := range paths {
		fmt.Printf("  %-22s", path)
	}
	fmt.Println()
	for _, pr := range p.Principals {
		ctx, err := sys.NewContext(pr.Name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s", pr.Name)
		for _, path := range paths {
			verdict := "ALLOW"
			if _, err := sys.CheckData(ctx, path, modes); err != nil {
				verdict = "deny"
			}
			fmt.Printf("  %-22s", verdict)
		}
		fmt.Println()
	}
}

func runTree(args []string) {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	policy := fs.String("policy", "", "policy file")
	_ = fs.Parse(args)
	_, sys := loadPolicy(*policy)
	sys.Names().Walk(func(path string, n *secext.Node) {
		indent := strings.Repeat("  ", strings.Count(path, "/"))
		if path == "/" {
			indent = ""
		}
		a, err := sys.Names().ACLOf(path)
		aclStr := "(unreadable)"
		if err == nil {
			aclStr = a.String()
		}
		extra := ""
		if n.Multilevel() {
			extra = " [multilevel]"
		}
		fmt.Printf("%s%s  <%s>%s class=%s acl=%s\n",
			indent, displayName(path, n), n.Kind(), extra, n.Class(), aclStr)
	})
}

func displayName(path string, n *secext.Node) string {
	if path == "/" {
		return "/"
	}
	return n.Name()
}

func runFmt(args []string) {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	policy := fs.String("policy", "", "policy file")
	_ = fs.Parse(args)
	p, _ := loadPolicy(*policy)
	fmt.Print(p.Format())
}

// runSnapshot builds the policy, then extracts the live protection
// state back out — a round-trip check that what was loaded is what is
// enforced.
func runSnapshot(args []string) {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	policy := fs.String("policy", "", "policy file")
	_ = fs.Parse(args)
	_, sys := loadPolicy(*policy)
	snap, err := secext.SnapshotPolicy(sys)
	if err != nil {
		fatal(err)
	}
	fmt.Print(snap.Format())
}

// fetch GETs a telemetry endpoint from a running secextd.
func fetch(httpAddr, path string) []byte {
	if httpAddr == "" {
		fatal(fmt.Errorf("-http is required (the daemon's -http address)"))
	}
	resp, err := http.Get("http://" + httpAddr + path)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body))))
	}
	return body
}

// runStats summarizes a running daemon's live counters.
func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	httpAddr := fs.String("http", "", "daemon telemetry address (host:port)")
	raw := fs.Bool("json", false, "print the raw JSON snapshot")
	_ = fs.Parse(args)
	body := fetch(*httpAddr, "/debug/stats")
	if *raw {
		os.Stdout.Write(body)
		return
	}
	var s secext.TelemetrySnapshot
	if err := json.Unmarshal(body, &s); err != nil {
		fatal(err)
	}
	fmt.Printf("telemetry mode %s (sampling 1/%d, %d traces sampled)\n",
		s.Mode, s.SampleEvery, s.TracesSampled)
	allowed, denied := s.Mediated()
	fmt.Printf("mediations: %d total (%d allowed, %d denied)\n", allowed+denied, allowed, denied)
	for _, m := range s.Mediations {
		if m.Allowed+m.Denied == 0 {
			continue
		}
		fmt.Printf("  %-10s allowed %-8d denied %d\n", m.Kind, m.Allowed, m.Denied)
	}
	lat := s.MediationLatency
	fmt.Printf("mediation latency (sampled): p50 %gns p95 %gns p99 %gns over %d samples\n",
		lat.P50, lat.P95, lat.P99, lat.Count)
	fmt.Printf("decision cache: %d hits, %d misses, %d stores, %d invalidations\n",
		s.Cache.Hits, s.Cache.Misses, s.Cache.Stores, s.Cache.Invalidations)
	n, c := s.Names, s.Names.CompiledStats
	fmt.Printf("epoch v%d: %d publishes, compiled builds %d incremental / %d full / %d reused\n",
		n.Version, n.Publishes, c.Incremental, c.Full, c.Reused)
	fmt.Printf("compiled view: %d index entries, %d classes, %d registry-sensitive summaries, %s retained (%s if unshared)\n",
		c.Entries, c.DomClasses, c.Sensitive, fmtBytes(c.RetainedBytes), fmtBytes(c.RetainedBytesCloned))
	fmt.Printf("freeze cost p95: index %gns, summaries %gns, bitsets %gns (over %d compiled flushes)\n",
		c.IndexBuild.P95, c.SummaryCompile.P95, c.VisRecompute.P95, c.IndexBuild.Count)
	fmt.Printf("shadow monitor: %d checks shadowed, %d divergences; journal holds %d transitions\n",
		n.ShadowChecks, n.Divergences, n.JournalRecords)
	fp := n.Footprint
	fmt.Printf("tree footprint: %d nodes (%d dirs, %d leaves), %s total (%.1f B/node)\n",
		fp.Nodes, fp.Directories, fp.Leaves, fmtBytes(fp.TotalBytes), fp.BytesPerNode)
	fmt.Printf("  structure sharing: %d owned / %d shared nodes this epoch; child slices %s, paths %s, names %s\n",
		fp.OwnedNodes, fp.SharedNodes, fmtBytes(fp.ChildSliceBytes), fmtBytes(fp.PathBytes), fmtBytes(fp.NameBytes))
	fmt.Printf("  acl dedupe: %d refs onto %d distinct values (ratio %.1f, %s)\n",
		fp.ACLRefs, fp.DistinctACLs, fp.ACLDedupRatio, fmtBytes(fp.ACLBytes))
	fmt.Printf("  interner: %d strings / %s held, %d hits, %d misses, %d resets; acl table %d distinct, %d dedups\n",
		fp.InternedStrings, fmtBytes(fp.InternedBytes), fp.InternHits, fp.InternMisses,
		fp.InternResets, fp.ACLCanonDistinct, fp.ACLCanonDedups)
	fmt.Printf("audit: %d decisions (%d allowed, %d denied), %d bypasses, %d dropped from ring\n",
		s.Audit.Total, s.Audit.Allowed, s.Audit.Denied, s.Audit.Bypassed, s.Audit.Dropped)
	fmt.Printf("dispatcher admissions: %d admitted, %d rejected\n",
		s.Admissions.Allowed, s.Admissions.Denied)
	for _, g := range s.Guards {
		fmt.Printf("guard %-12s allowed %-8d denied %-6d p95 %gns (sampled %d)\n",
			g.Name, g.Allowed, g.Denied, g.Latency.P95, g.Latency.Count)
	}
}

// runTrace prints recent decision traces from a running daemon.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	httpAddr := fs.String("http", "", "daemon telemetry address (host:port)")
	n := fs.Int("n", 10, "maximum traces to print")
	denied := fs.Bool("denied", false, "only denied requests")
	_ = fs.Parse(args)
	path := fmt.Sprintf("/debug/trace/recent?text=1&n=%d", *n)
	if *denied {
		path += "&denied=1"
	}
	body := fetch(*httpAddr, path)
	if len(strings.TrimSpace(string(body))) == 0 {
		fmt.Println("no traces retained")
		return
	}
	os.Stdout.Write(body)
}

// runExplain asks a running daemon why a decision went the way it did
// and prints the provenance verdict tree.
func runExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	httpAddr := fs.String("http", "", "daemon telemetry address (host:port)")
	as := fs.String("as", "", "principal to explain as")
	path := fs.String("path", "", "object path")
	modesArg := fs.String("modes", "read", "comma-separated access modes")
	raw := fs.Bool("json", false, "print the structured explanation as JSON")
	_ = fs.Parse(args)
	if *as == "" || *path == "" {
		fatal(fmt.Errorf("-as and -path are required"))
	}
	q := url.Values{"subject": {*as}, "path": {*path}, "mode": {*modesArg}}
	if !*raw {
		q.Set("text", "1")
	}
	os.Stdout.Write(fetch(*httpAddr, "/debug/explain?"+q.Encode()))
}

// runEpochs prints a running daemon's epoch-transition journal, newest
// first: which policy shards changed, the registry and lattice versions, the compile kind and cost, and the publish latency.
func runEpochs(args []string) {
	fs := flag.NewFlagSet("epochs", flag.ExitOnError)
	httpAddr := fs.String("http", "", "daemon telemetry address (host:port)")
	peer := fs.String("peer", "", "query a daemon's line protocol instead of HTTP (host:port)")
	token := fs.String("token", "", "principal token for -peer")
	n := fs.Int("n", 10, "maximum transitions to print")
	raw := fs.Bool("json", false, "print the raw JSON records")
	_ = fs.Parse(args)
	if *peer != "" {
		runEpochsPeer(*peer, *token, *n)
		return
	}
	path := fmt.Sprintf("/debug/epochs?n=%d", *n)
	if !*raw {
		path += "&text=1"
	}
	body := fetch(*httpAddr, path)
	if len(strings.TrimSpace(string(body))) == 0 || strings.TrimSpace(string(body)) == "[]" {
		fmt.Println("no transitions recorded")
		return
	}
	os.Stdout.Write(body)
}

// runEpochsPeer reads the epoch-transition journal over the line
// protocol — works against replicas too, where the journal's
// kind=replica records carry the primary version each apply landed.
func runEpochsPeer(addr, token string, n int) {
	if token == "" {
		fatal(fmt.Errorf("-peer needs -token"))
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	expect := func(what string) string {
		if !sc.Scan() {
			fatal(fmt.Errorf("connection closed during %s", what))
		}
		line := sc.Text()
		if !strings.HasPrefix(line, "OK") {
			fatal(fmt.Errorf("%s: %s", what, line))
		}
		return line
	}
	expect("greeting")
	fmt.Fprintf(conn, "AUTH %s\n", token)
	expect("authentication")
	fmt.Fprintf(conn, "EPOCHS %d\n", n)
	head := expect("epochs")
	var k int
	fmt.Sscanf(head, "OK %d", &k)
	if k == 0 {
		fmt.Println("no transitions recorded")
		return
	}
	for i := 0; i < k && sc.Scan(); i++ {
		fmt.Println(sc.Text())
	}
}

// runReplicas prints a replicating primary's per-peer status.
func runReplicas(args []string) {
	fs := flag.NewFlagSet("replicas", flag.ExitOnError)
	httpAddr := fs.String("http", "", "daemon telemetry address (host:port)")
	raw := fs.Bool("json", false, "print the raw JSON status")
	_ = fs.Parse(args)
	path := "/debug/replicas"
	if !*raw {
		path += "?text=1"
	}
	os.Stdout.Write(fetch(*httpAddr, path))
}

var _ = names.KindRoot // keep names import for Node alias methods

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
