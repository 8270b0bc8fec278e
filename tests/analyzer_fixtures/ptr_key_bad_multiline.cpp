// Fixture: a pointer key on the line after the '<' is still a pointer key.
// A per-line pattern never sees the container and the '*' together; the
// token scan follows the first template argument across lines. The last
// parameter keeps a pointer *value* behind a multi-line int key: not flagged.
#include <map>
#include <set>

struct graph;

int count_entries(const std::map<                    // analyze-expect: ptr-key
                      const graph*, int>& weights,
                  const std::set<                    // analyze-expect: ptr-key
                      graph*>& visited,
                  const std::map<
                      int, graph*>& by_id)
{
    return static_cast<int>(weights.size() + visited.size() + by_id.size());
}
